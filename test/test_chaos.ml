(* Tests for the chaos subsystem: Schedule arrival processes, the spec
   mini-parser, Adversary actions, and the Soak runner. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let n = 16
let horizon = 50_000

let arrivals schedule ~seed =
  Chaos.Schedule.arrivals_until schedule ~rng:(Prng.create ~seed) ~n ~horizon

(* ------------------------------------------------------------------ *)
(* Schedule: QCheck properties.                                       *)

(* Size-capped: a compose tree has at most 8 primitives, so the arrival
   streams stay small enough for the property to run in milliseconds. *)
let schedule_gen =
  QCheck.Gen.(
    sized_size (int_range 1 8) @@ fix (fun self size ->
        if size <= 1 then
          oneof
            [
              map (fun at -> Chaos.Schedule.burst ~at) (int_bound 10_000);
              map (fun every -> Chaos.Schedule.periodic ~every:(1 + every)) (int_bound 5_000);
              map
                (fun r -> Chaos.Schedule.poisson ~rate:(0.001 +. (float_of_int r /. 100.0)))
                (int_bound 200);
            ]
        else map2 Chaos.Schedule.compose (self (size / 2)) (self (size / 2))))

let schedule_arb = QCheck.make ~print:Chaos.Schedule.to_string schedule_gen

let qcheck_schedule_deterministic =
  QCheck.Test.make ~name:"schedule arrivals deterministic given seed" ~count:100
    QCheck.(pair schedule_arb small_int)
    (fun (schedule, seed) ->
      let a = arrivals schedule ~seed in
      let b = arrivals schedule ~seed in
      a = b && List.sort compare a = a)

let qcheck_poisson_monotone_in_rate =
  (* Same seed, higher rate: inter-arrival exponentials scale by 1/rate,
     so every arrival lands pointwise no later and at least as many fit
     under the horizon. *)
  QCheck.Test.make ~name:"poisson arrivals monotone in rate" ~count:100
    QCheck.(triple small_int (int_range 1 200) (int_range 2 8))
    (fun (seed, r, factor) ->
      let rate = float_of_int r /. 1000.0 in
      let lo = arrivals (Chaos.Schedule.poisson ~rate) ~seed in
      let hi = arrivals (Chaos.Schedule.poisson ~rate:(rate *. float_of_int factor)) ~seed in
      List.length hi >= List.length lo
      && List.for_all2 (fun h l -> h <= l) (List.filteri (fun i _ -> i < List.length lo) hi) lo)

let qcheck_compose_conserves_bursts =
  (* Composition is superposition: a compose tree of one-shot bursts
     fires exactly once per burst, at exactly the scheduled interactions
     (multiset equality, duplicates included). *)
  QCheck.Test.make ~name:"compose conserves burst arrivals" ~count:200
    QCheck.(pair small_int (list_of_size (QCheck.Gen.int_range 1 20) (int_bound horizon)))
    (fun (seed, ats) ->
      let schedule =
        List.fold_left
          (fun acc at -> Chaos.Schedule.compose acc (Chaos.Schedule.burst ~at))
          (Chaos.Schedule.burst ~at:(List.hd ats))
          (List.tl ats)
      in
      arrivals schedule ~seed = List.sort compare ats)

let test_periodic_arrivals () =
  Alcotest.(check (list int))
    "metronome at multiples of every" [ 1000; 2000; 3000 ]
    (Chaos.Schedule.arrivals_until
       (Chaos.Schedule.periodic ~every:1000)
       ~rng:(Prng.create ~seed:5) ~n ~horizon:3999)

let test_schedule_constructors_validate () =
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
  in
  raises "burst at negative" (fun () -> Chaos.Schedule.burst ~at:(-1));
  raises "periodic every zero" (fun () -> Chaos.Schedule.periodic ~every:0);
  raises "poisson rate zero" (fun () -> Chaos.Schedule.poisson ~rate:0.0);
  raises "poisson rate nan" (fun () -> Chaos.Schedule.poisson ~rate:Float.nan)

(* At rate 1e-18 and n = 8 most first arrivals lie past the last
   representable interaction; the conversion used to wrap them to
   interaction 1, where the soak fired them forever. *)
let test_poisson_unrepresentable_arrivals () =
  for seed = 1 to 20 do
    let stream =
      Chaos.Schedule.start (Chaos.Schedule.poisson ~rate:1e-18) ~rng:(Prng.create ~seed) ~n:8
    in
    check_bool (Printf.sprintf "seed %d: first arrival is not interaction 1" seed) true
      (Chaos.Schedule.peek stream <> Some 1)
  done

(* ------------------------------------------------------------------ *)
(* Spec mini-parser.                                                  *)

let test_spec_round_trips () =
  List.iter
    (fun spec ->
      match Chaos.Spec.parse spec with
      | Error msg -> Alcotest.fail (Printf.sprintf "parse %S failed: %s" spec msg)
      | Ok parsed -> (
          let rendered = Chaos.Spec.to_string parsed in
          match Chaos.Spec.parse rendered with
          | Error msg ->
              Alcotest.fail (Printf.sprintf "re-parse of %S (from %S) failed: %s" rendered spec msg)
          | Ok reparsed ->
              Alcotest.(check string)
                (Printf.sprintf "round trip of %S" spec)
                rendered (Chaos.Spec.to_string reparsed)))
    [
      "poisson:0.1,corrupt:0.05";
      "periodic:4096,kill-leader";
      "burst:0,duplicate-rank";
      "burst:100+poisson:0.01,stuck:4:2048";
      "corrupt:0.5,periodic:100+burst:7+poisson:2.5";
    ]

let test_spec_rejects_malformed () =
  List.iter
    (fun spec ->
      match Chaos.Spec.parse spec with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail (Printf.sprintf "parse %S should have failed" spec))
    [
      "";
      "poisson:0.1" (* no adversary *);
      "corrupt:0.05" (* no schedule *);
      "poisson:0.1,corrupt:0.05,kill-leader" (* two adversaries *);
      "poisson:0.1,corrupt:1.5" (* fraction out of range *);
      "poisson:-2,corrupt:0.05" (* bad rate *);
      "burst:-1,corrupt:0.05";
      "periodic:0,corrupt:0.05";
      "poisson:0.1,stuck:0:100" (* no agents *);
      "poisson:0.1,stuck:4" (* missing duration *);
      "gamma:3,corrupt:0.05" (* unknown clause *);
      "poisson:abc,corrupt:0.05";
    ]

(* ------------------------------------------------------------------ *)
(* Adversary constructors.                                            *)

let test_adversary_constructors_validate () =
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
  in
  raises "corrupt fraction > 1" (fun () -> Chaos.Adversary.corrupt ~fraction:1.5);
  raises "corrupt fraction < 0" (fun () -> Chaos.Adversary.corrupt ~fraction:(-0.1));
  raises "stuck zero agents" (fun () -> Chaos.Adversary.stuck ~agents:0 ~duration:10);
  raises "stuck zero duration" (fun () -> Chaos.Adversary.stuck ~agents:1 ~duration:0);
  Alcotest.(check string)
    "corrupt renders" "corrupt:0.05"
    (Chaos.Adversary.to_string (Chaos.Adversary.corrupt ~fraction:0.05));
  Alcotest.(check string)
    "stuck renders" "stuck:4:2048"
    (Chaos.Adversary.to_string (Chaos.Adversary.stuck ~agents:4 ~duration:2048))

(* ------------------------------------------------------------------ *)
(* Soak runner.                                                       *)

let soak ~kind ~seed ~schedule ~adversary =
  let protocol = Core.Silent_n_state.protocol ~n in
  let rng = Prng.create ~seed in
  let exec =
    Engine.Exec.make ~kind ~protocol ~init:(Core.Scenarios.silent_correct ~n) ~rng ()
  in
  Chaos.Soak.run ~schedule ~adversary
    ~random_state:(fun rng -> Core.Scenarios.silent_random_state rng ~n)
    ~rng ~horizon exec

let test_soak_deterministic () =
  List.iter
    (fun kind ->
      let run () =
        soak ~kind ~seed:31
          ~schedule:
            (Chaos.Schedule.compose
               (Chaos.Schedule.periodic ~every:4000)
               (Chaos.Schedule.poisson ~rate:0.01))
          ~adversary:(Chaos.Adversary.corrupt ~fraction:0.2)
      in
      check_bool
        (Printf.sprintf "identical reports on same seed (%s engine)"
           (Engine.Exec.kind_to_string kind))
        true
        (run () = run ()))
    [ Engine.Exec.Agent; Engine.Exec.Count ]

let test_soak_report_sane () =
  let r =
    soak ~kind:Engine.Exec.Agent ~seed:33
      ~schedule:(Chaos.Schedule.periodic ~every:4000)
      ~adversary:(Chaos.Adversary.corrupt ~fraction:0.25)
  in
  check_int "clock ran to the horizon" horizon r.Chaos.Soak.total_interactions;
  check_bool "availability in [0,1]" true
    (r.Chaos.Soak.availability >= 0.0 && r.Chaos.Soak.availability <= 1.0);
  check_bool "correct share below total" true
    (r.Chaos.Soak.correct_interactions <= r.Chaos.Soak.total_interactions);
  check_int "metronome fired horizon/every times" (horizon / 4000) r.Chaos.Soak.firings;
  check_bool "every firing overwrote agents" true
    (r.Chaos.Soak.faults_applied >= r.Chaos.Soak.firings);
  let { Telemetry.Timeline.Tally.bursts; broke; recovered; censored; _ } = Chaos.Soak.pool [ r ] in
  check_int "one tallied run's bursts" (List.length r.Chaos.Soak.bursts) bursts;
  check_int "broken bursts recover or are censored" broke (List.length recovered + censored);
  check_bool "recoveries happened under a gentle metronome" true (recovered <> [])

let test_soak_stuck_repins () =
  (* A pinned agent must be re-injected whenever it drifts: under a
     one-shot burst with a long pin, repins only ever add faults, and
     every fault after the first firing is a repin. *)
  let r =
    soak ~kind:Engine.Exec.Agent ~seed:35
      ~schedule:(Chaos.Schedule.burst ~at:100)
      ~adversary:(Chaos.Adversary.stuck ~agents:2 ~duration:20_000)
  in
  check_int "single firing" 1 r.Chaos.Soak.firings;
  check_int "repins account for all faults beyond the strike"
    (r.Chaos.Soak.faults_applied - 2)
    r.Chaos.Soak.repins

let test_soak_validates_arguments () =
  let raises what f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")
  in
  let protocol = Core.Silent_n_state.protocol ~n in
  let make () =
    Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol
      ~init:(Core.Scenarios.silent_correct ~n)
      ~rng:(Prng.create ~seed:36) ()
  in
  let random_state rng = Core.Scenarios.silent_random_state rng ~n in
  raises "horizon zero" (fun () ->
      Chaos.Soak.run
        ~schedule:(Chaos.Schedule.burst ~at:0)
        ~adversary:Chaos.Adversary.kill_leader ~random_state ~rng:(Prng.create ~seed:37)
        ~horizon:0 (make ()));
  raises "sla budget zero" (fun () ->
      Chaos.Soak.run ~sla_budget:0
        ~schedule:(Chaos.Schedule.burst ~at:0)
        ~adversary:Chaos.Adversary.kill_leader ~random_state ~rng:(Prng.create ~seed:38)
        ~horizon:100 (make ()))

(* One burst accounting: the soak's report must tell the same story as
   [Telemetry.Timeline] folding the events file the soak wrote. The
   availability is left out: a count-engine soak that ends silent writes
   no event at its horizon, so the folded stream stops early. *)
type soak_case = {
  c_seed : int;
  c_n : int;
  c_kind : Engine.Exec.kind;
  c_optimal : bool;
  c_adversary : Chaos.Adversary.t;
  c_horizon : int;  (** parallel time units *)
}

let soak_case_gen =
  QCheck.Gen.(
    map
      (fun (seed, n, agent, optimal, adv) ->
        {
          c_seed = seed;
          (* the count engine probes Optimal-Silent's large state space
             lazily; small populations and short soaks keep it fast *)
          c_n = (if optimal && not agent then 6 + (n mod 4) else n);
          c_kind = (if agent then Engine.Exec.Agent else Engine.Exec.Count);
          c_optimal = optimal;
          c_adversary =
            (match adv with
            | 0 -> Chaos.Adversary.corrupt ~fraction:0.2
            | 1 -> Chaos.Adversary.kill_leader
            | 2 -> Chaos.Adversary.duplicate_rank
            | _ -> Chaos.Adversary.stuck ~agents:2 ~duration:(20 * n));
          c_horizon = (if optimal && not agent then 120 else 400);
        })
      (tup5 (int_bound 10_000) (int_range 6 32) bool bool (int_bound 3)))

let soak_case_arb =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "seed %d, n %d, %s engine, %s, %s" c.c_seed c.c_n
        (Engine.Exec.kind_to_string c.c_kind)
        (if c.c_optimal then "optimal" else "silent")
        (Chaos.Adversary.to_string c.c_adversary))
    soak_case_gen

(* Runs one soak with its events written to a buffer; returns the report
   and the Timeline summary of the buffer. *)
let soak_and_fold c =
  let n = c.c_n in
  let rng = Prng.create ~seed:c.c_seed in
  let go (type s) (protocol : s Engine.Protocol.t) (init : s array) (random_state : Prng.t -> s)
      =
    let exec = Engine.Exec.make ~kind:c.c_kind ~protocol ~init ~rng () in
    let sink = Telemetry.Sink.buffer () in
    let run =
      Telemetry.Events.make_run ~engine:c.c_kind ~protocol:protocol.Engine.Protocol.name ~n
        ~seed:c.c_seed ()
    in
    Telemetry.Events.attach ~step_interval:(64 * n) exec ~run sink;
    let report =
      Chaos.Soak.run ~sla_budget:(n * (20 + (c.c_seed mod 200)))
        ~schedule:(Chaos.Schedule.poisson ~rate:0.05)
        ~adversary:c.c_adversary ~random_state ~rng ~horizon:(c.c_horizon * n) exec
    in
    let events =
      String.split_on_char '\n' (Telemetry.Sink.contents sink)
      |> List.filter (fun l -> l <> "")
      |> List.map (fun l -> Result.get_ok (Telemetry.Events.of_line l))
    in
    (report, Telemetry.Timeline.fold events)
  in
  if c.c_optimal then
    let params = Core.Params.optimal_silent n in
    go
      (Core.Optimal_silent.protocol ~params ~n ())
      (Core.Scenarios.optimal_correct ~n)
      (fun rng -> Core.Scenarios.optimal_random_state rng ~params ~n)
  else
    go (Core.Silent_n_state.protocol ~n) (Core.Scenarios.silent_correct ~n) (fun rng ->
        Core.Scenarios.silent_random_state rng ~n)

let qcheck_soak_agrees_with_timeline =
  QCheck.Test.make ~name:"soak agrees with the timeline of its events" ~count:40 soak_case_arb
    (fun c ->
      let r, summaries = soak_and_fold c in
      match summaries with
      | [ s ] ->
          let bursts = s.Telemetry.Timeline.bursts in
          let budget = r.Chaos.Soak.sla.Telemetry.Timeline.sla_budget in
          (* The soak notes a strike as one fault; the executor emits one
             [Fault] per injection, so only the fault counts may differ. *)
          let strikes = List.map (fun b -> { b with Telemetry.Timeline.faults = 0 }) in
          strikes r.Chaos.Soak.bursts = strikes bursts
          && r.Chaos.Soak.sla = Telemetry.Timeline.judge ~budget bursts
          && r.Chaos.Soak.violations = s.Telemetry.Timeline.violations
      | _ -> false)

(* ssr_sim's path for [--chaos burst:1000,corrupt:0.2 --horizon 8000
   --sla B]: the job converts B to whole interactions, the soak judges
   its one burst against them, and the events it wrote fold through the
   timeline under the same B. *)
let soak_job ~sla =
  let job =
    Result.get_ok
      (Fleet.Job.make ~id:"sla" ~protocol:"silent" ~n:32 ~seed:3 ~scenario:"correct"
         ~engine:Engine.Exec.Count ~chaos:"burst:1000,corrupt:0.2" ~horizon:8000.0 ~sla ())
  in
  let sink = Telemetry.Sink.buffer () in
  let (Fleet.Run.Finished { outcome; _ }) =
    Fleet.Run.trial ~sink ~seed:3 ~scenario_rng:(Prng.create ~seed:1003)
      ~rng:(Prng.create ~seed:3)
      (Result.get_ok (Fleet.Job.plan job))
  in
  let events =
    String.split_on_char '\n' (Telemetry.Sink.contents sink)
    |> List.filter (fun l -> l <> "")
    |> List.map (fun l -> Result.get_ok (Telemetry.Events.of_line l))
  in
  match (outcome, Telemetry.Timeline.fold events) with
  | Fleet.Run.Soaked r, [ s ] -> (r, s)
  | _ -> Alcotest.fail "expected one soaked run"

let test_timeline_sla_rounds_like_soak () =
  let n = 32 in
  let r, _ = soak_job ~sla:4000.0 in
  let recovery =
    match r.Chaos.Soak.bursts with
    | [ b ] -> Option.get (Telemetry.Timeline.recovery_interactions b)
    | _ -> Alcotest.fail "expected one burst"
  in
  (* Budgets B with B·n strictly between two whole interaction counts:
     rounded up, the first is the recovery itself (met), the second one
     interaction short of it (missed). *)
  List.iter
    (fun (whole, met) ->
      let sla = (float_of_int whole -. 0.5) /. float_of_int n in
      let r, s = soak_job ~sla in
      let soak = r.Chaos.Soak.sla and folded = Telemetry.Timeline.check_sla ~budget:sla s in
      let label what = Printf.sprintf "B = %g: %s" sla what in
      check_int (label "soak budget") whole soak.Telemetry.Timeline.sla_budget;
      check_bool (label "soak verdict") met soak.Telemetry.Timeline.sla_met;
      check_bool (label "timeline verdict") soak.Telemetry.Timeline.sla_met
        folded.Telemetry.Timeline.sla_met;
      check_int (label "misses") soak.Telemetry.Timeline.sla_misses
        folded.Telemetry.Timeline.sla_misses;
      check_int (label "censored") soak.Telemetry.Timeline.sla_censored
        folded.Telemetry.Timeline.sla_censored)
    [ (recovery, true); (recovery - 1, false) ]

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_schedule_deterministic;
    QCheck_alcotest.to_alcotest qcheck_poisson_monotone_in_rate;
    QCheck_alcotest.to_alcotest qcheck_compose_conserves_bursts;
    Alcotest.test_case "periodic arrivals" `Quick test_periodic_arrivals;
    Alcotest.test_case "poisson: unrepresentable arrivals end the stream" `Quick
      test_poisson_unrepresentable_arrivals;
    Alcotest.test_case "schedule constructors validate" `Quick
      test_schedule_constructors_validate;
    Alcotest.test_case "spec round trips" `Quick test_spec_round_trips;
    Alcotest.test_case "spec rejects malformed" `Quick test_spec_rejects_malformed;
    Alcotest.test_case "adversary constructors validate" `Quick
      test_adversary_constructors_validate;
    Alcotest.test_case "soak deterministic" `Quick test_soak_deterministic;
    Alcotest.test_case "soak report sane" `Quick test_soak_report_sane;
    Alcotest.test_case "soak stuck repins" `Quick test_soak_stuck_repins;
    Alcotest.test_case "soak validates arguments" `Quick test_soak_validates_arguments;
    QCheck_alcotest.to_alcotest qcheck_soak_agrees_with_timeline;
    Alcotest.test_case "timeline rounds an SLA budget as the soak does" `Quick
      test_timeline_sla_rounds_like_soak;
  ]
