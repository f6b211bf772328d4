let name = "ablation"

let description = "Parameter-constant ablations for Optimal-Silent-SSR and Sublinear-Time-SSR"

(* Wrap the protocol to count fresh trigger interactions: a Computing agent
   entering the Resetting role at full resetcount starts (or joins the
   start of) a global reset wave. *)
let with_trigger_counter ~(params : Core.Params.optimal_silent) protocol counter =
  let is_computing = function Core.Reset.Computing _ -> true | Core.Reset.Resetting _ -> false in
  let fresh_trigger = function
    | Core.Reset.Resetting r -> r.Core.Reset.resetcount = params.Core.Params.r_max
    | Core.Reset.Computing _ -> false
  in
  let transition rng a b =
    let a', b' = protocol.Engine.Protocol.transition rng a b in
    if (is_computing a && fresh_trigger a') || (is_computing b && fresh_trigger b') then
      incr counter;
    (a', b')
  in
  { protocol with Engine.Protocol.transition }

let measure_optimal ~n ~params ~jobs ~trials ~seed =
  (* Each trial wraps its own counter around a fresh protocol record, so
     trials stay independent under parallel execution. *)
  let outcomes =
    Fleet.Run.run_trials ~jobs ~trials ~seed (fun _ rng ->
        let counter = ref 0 in
        let protocol =
          with_trigger_counter ~params (Core.Optimal_silent.protocol ~params ~n ()) counter
        in
        let init = Core.Scenarios.optimal_uniform rng ~params ~n in
        let o =
          Fleet.Run.stabilize ~expected_time:(float_of_int (40 * n))
            (Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng ())
        in
        if o.Engine.Runner.converged then
          Some (o.Engine.Runner.convergence_time, float_of_int !counter)
        else None)
  in
  let converged = Array.to_list outcomes |> List.filter_map Fun.id in
  let times = List.map fst converged in
  let triggers = List.map snd converged in
  let failures = trials - List.length converged in
  (times, triggers, failures)

let sweep_table buf ~title ~header rows =
  Buffer.add_string buf (title ^ "\n");
  let table = Stats.Table.create ~header in
  List.iter (Stats.Table.add_row table) rows;
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf "\n\n"

let optimal_row label (times, triggers, failures) trials =
  if times = [] then [ label; string_of_int trials; "-"; "-"; "-"; string_of_int failures ]
  else begin
    let t = Stats.Summary.of_list times in
    let g = Stats.Summary.of_list triggers in
    [
      label;
      string_of_int trials;
      Stats.Table.cell_float t.Stats.Summary.mean;
      Stats.Table.cell_float t.Stats.Summary.p95;
      Stats.Table.cell_float g.Stats.Summary.mean;
      string_of_int failures;
    ]
  end

let optimal_header = [ "value"; "trials"; "mean time"; "p95"; "trigger interactions"; "fail" ]

(* Detection latency of a hidden name collision (the tradeoff
   experiment's measurement); an undetected trial counts at the horizon. *)
let detection_latency ~n ~params ~jobs ~trials ~seed =
  let protocol = Core.Sublinear.protocol ~params ~n ~h:params.Core.Params.h () in
  let horizon = 400 * n * n in
  let times =
    Fleet.Run.run_trials ~jobs ~trials ~seed (fun _ rng ->
        let init = Core.Scenarios.sublinear_name_collision rng ~params ~n in
        match Exp_tradeoff.detection_latency ~protocol ~init ~rng ~horizon with
        | Some t -> t
        | None -> float_of_int horizon /. float_of_int n)
  in
  Stats.Summary.of_array times

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "== Experiment AB: parameter ablations ==\n\n";
  let trials = Exp_common.trials_of_mode mode ~base:20 in
  let n = match mode with Exp_common.Quick -> 32 | Exp_common.Full -> 64 in
  let base = Core.Params.optimal_silent n in
  (* D_max = c·n *)
  let rows =
    List.map
      (fun c ->
        let params = { base with Core.Params.d_max = c * n } in
        optimal_row (Printf.sprintf "D_max = %d·n" c) (measure_optimal ~n ~params ~jobs ~trials ~seed) trials)
      [ 1; 2; 4; 6; 10 ]
  in
  sweep_table buf
    ~title:
      (Printf.sprintf
         "D_max sweep at n=%d (short dormancy leaves several leaders alive -> extra reset waves)" n)
    ~header:optimal_header rows;
  (* E_max = c·n *)
  let rows =
    List.map
      (fun c ->
        let params = { base with Core.Params.e_max = c * n } in
        optimal_row (Printf.sprintf "E_max = %d·n" c) (measure_optimal ~n ~params ~jobs ~trials ~seed:(seed + 1)) trials)
      [ 2; 4; 8; 12; 20 ]
  in
  sweep_table buf
    ~title:
      (Printf.sprintf
         "E_max sweep at n=%d (short starvation budget fires false alarms during ranking)" n)
    ~header:optimal_header rows;
  (* R_max *)
  let rows =
    List.map
      (fun (label, r) ->
        let params = { base with Core.Params.r_max = r } in
        optimal_row label (measure_optimal ~n ~params ~jobs ~trials ~seed:(seed + 2)) trials)
      [
        ("R_max = 2", 2);
        ("R_max = 3", 3);
        ("R_max = 6", 6);
        (Printf.sprintf "R_max = 4·ln n (%d)" (4 * Core.Params.ceil_ln n), 4 * Core.Params.ceil_ln n);
        (Printf.sprintf "R_max = 60·ln n (%d)" (60 * Core.Params.ceil_ln n), 60 * Core.Params.ceil_ln n);
      ]
  in
  sweep_table buf
    ~title:
      (Printf.sprintf "R_max sweep at n=%d (the reset wave must outlive the epidemic depth)" n)
    ~header:optimal_header rows;
  (* Preset comparison *)
  let rows =
    List.concat_map
      (fun n ->
        List.map
          (fun (label, preset) ->
            let params = Core.Params.optimal_silent ~preset n in
            optimal_row
              (Printf.sprintf "n=%d %s" n label)
              (measure_optimal ~n ~params ~jobs ~trials ~seed:(seed + 3))
              trials)
          [ ("Tuned", Core.Params.Tuned); ("Paper", Core.Params.Paper) ])
      (match mode with Exp_common.Quick -> [ 32 ] | Exp_common.Full -> [ 32; 128 ])
  in
  sweep_table buf ~title:"Preset comparison (paper constants vs tuned constants, same asymptotics)"
    ~header:optimal_header rows;
  (* T_H sweep for Sublinear-Time-SSR *)
  let h = 1 in
  let base_sub = Core.Params.sublinear ~h n in
  let rows =
    List.map
      (fun t_h ->
        let params = { base_sub with Core.Params.t_h } in
        let s = detection_latency ~n ~params ~jobs ~trials ~seed:(seed + 4) in
        [
          Printf.sprintf "T_H = %d%s" t_h (if t_h = base_sub.Core.Params.t_h then " (default)" else "");
          string_of_int trials;
          Stats.Table.cell_float s.Stats.Summary.mean;
          Stats.Table.cell_float s.Stats.Summary.p95;
        ])
      (List.sort_uniq compare [ 4; 8; 16; 32; base_sub.Core.Params.t_h; 2 * base_sub.Core.Params.t_h ])
  in
  sweep_table buf
    ~title:
      (Printf.sprintf
         "T_H sweep for Sublinear-Time-SSR (H=%d, n=%d): hidden-collision detection latency" h n)
    ~header:[ "value"; "trials"; "mean detect"; "p95" ] rows;
  Buffer.contents buf
