type report = {
  horizon : int;
  total_interactions : int;
  correct_interactions : int;
  availability : float;
  firings : int;
  faults_applied : int;
  repins : int;
  bursts : Telemetry.Timeline.burst list;
  violations : int;
  sla : Telemetry.Timeline.sla;
}

let default_budget ~n = 4 * Engine.Runner.default_confirm ~n

module Timeline = Telemetry.Timeline

let pool rs = Timeline.Tally.pool (List.map (fun r -> (r.availability, r.bursts, Some r.sla)) rs)

let run (type a) ?sla_budget ~schedule ~adversary
    ~(random_state : Prng.t -> a) ~rng ~horizon (exec : a Engine.Exec.t) =
  if horizon < 1 then invalid_arg "Chaos.Soak.run: horizon must be >= 1";
  let protocol = Engine.Exec.protocol exec in
  let n = protocol.Engine.Protocol.n in
  let budget = match sla_budget with Some b -> b | None -> default_budget ~n in
  if budget < 1 then invalid_arg "Chaos.Soak.run: sla_budget must be >= 1";
  (* Split order is part of the determinism contract (see .mli). *)
  let schedule_rng = Prng.split rng in
  let adversary_rng = Prng.split rng in
  let stream = Schedule.start schedule ~rng:schedule_rng ~n in
  let nf = float_of_int n in
  let t0 = Engine.Exec.interactions exec in
  let horizon_abs = t0 + horizon in
  let clock = ref t0 in
  let correct = ref false in
  let firings = ref 0 in
  let faults_applied = ref 0 in
  let repins = ref 0 in
  let pins : a Adversary.pin list ref = ref [] in
  (* Bursts, recoveries, violations and the correct share are the
     Timeline fold of the landmarks below, fed as they happen — no
     per-interaction subscriber. *)
  let timeline = Timeline.acc () in
  let time () = float_of_int !clock /. nf in
  (* Correctness bookkeeping mirrors Runner: transitions are published on
     the executor's event stream, so telemetry subscribers see the same
     landmarks a stability run would produce. *)
  let landmark ev =
    Timeline.feed timeline ev;
    Engine.Exec.emit exec ev
  in
  let observe () =
    let now_correct = Engine.Runner.is_correct ~task:Engine.Runner.Ranking exec in
    if now_correct <> !correct then begin
      correct := now_correct;
      landmark
        (if now_correct then
           Engine.Instrument.Correct_entered { interactions = !clock; time = time () }
         else Engine.Instrument.Correct_lost { interactions = !clock; time = time () })
    end
  in
  let note_fault agents =
    Timeline.feed timeline
      (Engine.Instrument.Fault { agents; interactions = !clock; time = time () })
  in
  let fire () =
    incr firings;
    let hit, new_pins =
      (* Rare relative to productive steps, so a span here is cheap; the
         per-step [advance] below is far too hot to time. *)
      Telemetry.Span.wrap "inject" (fun () ->
          Adversary.apply ~rng:adversary_rng ~random_state ~now:!clock exec adversary)
    in
    faults_applied := !faults_applied + hit;
    if hit > 0 then note_fault hit;
    pins := !pins @ new_pins;
    observe ()
  in
  (* Next pending arrival, shifted to the executor's clock. *)
  let next_arrival () = Option.map (fun a -> t0 + a) (Schedule.peek stream) in
  let fire_due () =
    let rec loop () =
      match next_arrival () with
      | Some a when a <= !clock ->
          ignore (Schedule.pop stream : int option);
          fire ();
          loop ()
      | Some _ | None -> ()
    in
    loop ()
  in
  (* Re-inject every active pin whose agent has drifted. Expired pins are
     dropped first, so a pin holds for exactly [duration] interactions. *)
  let enforce_pins () =
    if !pins <> [] then begin
      pins := List.filter (fun p -> p.Adversary.expires_at > !clock) !pins;
      List.iter
        (fun { Adversary.agent; state; expires_at = _ } ->
          if not (protocol.Engine.Protocol.equal (Engine.Exec.state exec agent) state) then begin
            Engine.Exec.inject exec agent state;
            incr repins;
            incr faults_applied;
            note_fault 1
          end)
        !pins;
      observe ()
    end
  in
  observe ();
  fire_due ();
  while !clock < horizon_abs do
    let until =
      match next_arrival () with Some a when a < horizon_abs -> a | Some _ | None -> horizon_abs
    in
    let (_ : bool) = Engine.Exec.advance exec ~until in
    (* Correctness only changes at an observed step — on the count
       engine the skipped null interactions change nothing, and the
       productive event lands exactly at [clock] — so the correct share
       the timeline integrates between landmarks is exact on both
       engines. *)
    clock := Engine.Exec.interactions exec;
    enforce_pins ();
    observe ();
    fire_due ()
  done;
  Timeline.close timeline ~interactions:!clock ~time:(time ());
  let total = !clock - t0 in
  let correct_interactions = Timeline.correct_interactions timeline in
  let bursts = Timeline.bursts timeline in
  let report =
    {
      horizon;
      total_interactions = total;
      correct_interactions;
      availability = float_of_int correct_interactions /. float_of_int total;
      firings = !firings;
      faults_applied = !faults_applied;
      repins = !repins;
      bursts;
      violations = Timeline.violations timeline;
      sla = Timeline.judge ~budget bursts;
    }
  in
  (match Telemetry.Metrics.ambient () with
  | None -> ()
  | Some reg ->
      let add name v = Telemetry.Metrics.add reg name (float_of_int v) in
      let { Timeline.Tally.bursts; recovered; censored; misses; _ } = pool [ report ] in
      add "chaos.firings" report.firings;
      add "chaos.faults_applied" report.faults_applied;
      add "chaos.repins" report.repins;
      add "chaos.bursts" bursts;
      add "chaos.recoveries" (List.length recovered);
      add "chaos.censored" censored;
      add "chaos.violations" report.violations;
      add "chaos.sla_misses" (misses + censored));
  report

let pt ~n i = float_of_int i /. float_of_int n

(* The burst and recovery-time lines, shared by a soak's report (with its
   correctness losses between them) and a batch's pooled one. *)
let print_tally oc ?losses ~pooled t =
  let { Timeline.Tally.bursts; broke; recovered; censored; _ } = t in
  Printf.fprintf oc "fault bursts        : %d (%d absorbed, %d recovered, %d censored)\n" bursts
    (bursts - broke) (List.length recovered) censored;
  Option.iter (Printf.fprintf oc "correctness losses  : %d\n") losses;
  if recovered <> [] then begin
    let s = Stats.Summary.of_list recovered in
    Printf.fprintf oc "recovery time       : mean %.2f  p95 %.2f  max %.2f (%stime units)\n"
      s.Stats.Summary.mean s.Stats.Summary.p95 s.Stats.Summary.max
      (if pooled then "pooled, " else "")
  end

let print_report oc ~n r =
  Printf.fprintf oc "horizon             : %.2f time units (%d interactions)\n" (pt ~n r.horizon)
    r.horizon;
  Printf.fprintf oc "availability        : %.4f (%d of %d interactions correct)\n" r.availability
    r.correct_interactions r.total_interactions;
  Printf.fprintf oc "schedule firings    : %d (%d agent states overwritten%s)\n" r.firings
    r.faults_applied
    (if r.repins > 0 then Printf.sprintf ", %d re-pins" r.repins else "");
  print_tally oc ~losses:r.violations ~pooled:false (pool [ r ]);
  let { Timeline.sla_budget; sla_met; sla_misses; sla_censored; _ } = r.sla in
  Printf.fprintf oc "SLA                 : budget %.2f time units — %s\n" (pt ~n sla_budget)
    (if sla_met then "MET"
     else Printf.sprintf "MISSED (%d over budget, %d censored)" sla_misses sla_censored)

let print_pooled oc ~n ~trials rs =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
  let extreme pick init = List.fold_left (fun acc r -> pick acc r.availability) init rs in
  let t = pool rs in
  let { Timeline.Tally.availability; met; misses; censored; _ } = t in
  if rs <> [] then
    Printf.fprintf oc "availability        : mean %.4f  min %.4f  max %.4f\n" availability
      (extreme Float.min infinity) (extreme Float.max neg_infinity);
  Printf.fprintf oc "schedule firings    : %d (%d agent states overwritten)\n"
    (sum (fun r -> r.firings))
    (sum (fun r -> r.faults_applied));
  print_tally oc ~pooled:true t;
  match rs with
  | first :: _ ->
      Printf.fprintf oc "SLA                 : budget %.2f time units — %d/%d trials met"
        (pt ~n first.sla.Timeline.sla_budget) met trials;
      if met < trials then Printf.fprintf oc " (%d over budget, %d censored)" misses censored;
      output_char oc '\n'
  | [] -> ()
