let name = "table1"

let description = "Table 1: time and space of the three self-stabilizing ranking protocols"

let buffer_add_table buf title table =
  Buffer.add_string buf title;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf "\n\n"

let sweep ~buf ~title ~expected_exponent ~ns ~measure_one =
  let table = Stats.Table.create ~header:Exp_common.time_header in
  let points =
    List.map
      (fun n ->
        let m = measure_one n in
        Stats.Table.add_row table (Exp_common.time_row m);
        (n, m))
      ns
  in
  buffer_add_table buf title table;
  (match expected_exponent with
  | Some expo ->
      let fit = Exp_common.scaling_fit points in
      Buffer.add_string buf
        (Printf.sprintf "log-log fit: slope=%.3f (paper predicts %.3f), r2=%.4f\n\n"
           fit.Stats.Regression.slope expo fit.Stats.Regression.r2)
  | None ->
      let fit = Exp_common.semilog_fit points in
      Buffer.add_string buf
        (Printf.sprintf
           "time vs ln n fit: slope=%.3f per ln n, r2=%.4f (paper predicts Θ(log n))\n\n"
           fit.Stats.Regression.slope fit.Stats.Regression.r2));
  points

(* Aggregated (n, mean, ±95%) points for the scaling figure; sizes where
   every trial failed contribute no point. *)
let fit_points points =
  List.filter_map
    (fun (n, m) ->
      let times = m.Exp_common.times in
      if Array.length times = 0 then None
      else
        Some
          ( float_of_int n,
            Exp_common.mean_time m,
            if Array.length times < 2 then 0.0 else Stats.Summary.ci95_halfwidth times ))
    points

let silence_cells points =
  List.map
    (fun (_, m) ->
      Printf.sprintf "%d/%d silent" m.Exp_common.silent_ok m.Exp_common.silent_checked)
    points

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "== Experiment T1: Table 1 ==\n\n";
  let trials = Exp_common.trials_of_mode mode ~base:30 in
  (* Row 1: Silent-n-state-SSR, Θ(n²), from uniform adversarial ranks. *)
  let ns1 = match mode with Exp_common.Quick -> [ 8; 16; 32; 64 ] | Exp_common.Full -> [ 8; 16; 32; 64; 128 ] in
  let row1 =
    sweep ~buf
      ~title:"Silent-n-state-SSR (uniform adversarial ranks, count engine) — paper: Θ(n²), silent"
      ~expected_exponent:(Some 2.0) ~ns:ns1 ~measure_one:(fun n ->
        let protocol = Core.Silent_n_state.protocol ~n in
        Exp_common.measure ~label:"silent-n-state" ~protocol
          ~init:(fun rng -> Core.Scenarios.silent_uniform rng ~n)
          ~expected_time:(float_of_int (n * n) /. 2.0)
          ~engine:Engine.Exec.Count ~jobs ~trials ~seed ())
  in
  Buffer.add_string buf
    (Printf.sprintf "silence of final configurations: %s\n\n"
       (String.concat ", " (silence_cells row1)));
  (* Row 2: Optimal-Silent-SSR, Θ(n), from uniform adversarial states —
     on the count engine, like row 1. The lazy kernel only probes cell
     pairs that actually become live, so Optimal-Silent's counter-carrying
     states no longer explode the closure the way the old eager probe
     fixpoint did (which is why this row used to be pinned to the agent
     engine). The sweep stops at n = 256: uniform adversarial starts make
     nearly every cell pair productive, so per-event adjacency walks grow
     with the live-cell count and a 30-trial n = 512 point alone costs
     ~2 CPU-hours — the engine's large-n payoff is the sparse regime
     (correct-start recovery, chaos soaks, the n = 10^6 scale-smoke run),
     not dense mid-n sweeps. *)
  let ns2 =
    match mode with Exp_common.Quick -> [ 16; 32; 64; 128 ] | Exp_common.Full -> [ 16; 32; 64; 128; 256 ]
  in
  let row2 =
    sweep ~buf
      ~title:"Optimal-Silent-SSR (uniform adversarial states, count engine) — paper: Θ(n), silent"
      ~expected_exponent:(Some 1.0) ~ns:ns2 ~measure_one:(fun n ->
        let params = Core.Params.optimal_silent n in
        let protocol = Core.Optimal_silent.protocol ~params ~n () in
        Exp_common.measure ~label:"optimal-silent" ~protocol
          ~init:(fun rng -> Core.Scenarios.optimal_uniform rng ~params ~n)
          ~expected_time:(float_of_int (20 * n))
          ~engine:Engine.Exec.Count ~jobs ~trials ~seed:(seed + 1) ())
  in
  Buffer.add_string buf
    (Printf.sprintf "silence of final configurations: %s\n\n"
       (String.concat ", " (silence_cells row2)));
  (* Row 3: Sublinear-Time-SSR with H = ⌈log₂ n⌉, Θ(log n), from the
     hardest scenario (hidden name collision). Population sizes stay small:
     the state space is quasi-exponential and the history trees genuinely
     reach ~n^H nodes (see DESIGN.md). *)
  let ns3 = match mode with Exp_common.Quick -> [ 4; 8; 12 ] | Exp_common.Full -> [ 4; 6; 8; 12; 16 ] in
  let row3 =
    sweep ~buf
      ~title:
        "Sublinear-Time-SSR, H=⌈log₂ n⌉ (hidden name collision) — paper: Θ(log n), not silent"
      ~expected_exponent:None ~ns:ns3 ~measure_one:(fun n ->
        let h = Core.Params.h_log n in
        let params = Core.Params.sublinear ~h n in
        let protocol = Core.Sublinear.protocol ~params ~n ~h () in
        Exp_common.measure ~label:"sublinear-log" ~protocol
          ~init:(fun rng -> Core.Scenarios.sublinear_name_collision rng ~params ~n)
          ~expected_time:(float_of_int (params.Core.Params.d_max + (4 * params.Core.Params.t_h) + 50))
          ~jobs ~trials ~seed:(seed + 2) ())
  in
  (* Row 4: Sublinear-Time-SSR with fixed H = 1: Θ(n^{1/2}). *)
  let ns4 = match mode with Exp_common.Quick -> [ 8; 16; 32 ] | Exp_common.Full -> [ 8; 16; 32; 64; 128 ] in
  let row4 =
    sweep ~buf
      ~title:"Sublinear-Time-SSR, H=1 (hidden name collision) — paper: Θ(H·n^{1/(H+1)}) = Θ(√n)"
      ~expected_exponent:(Some 0.5) ~ns:ns4 ~measure_one:(fun n ->
        let h = 1 in
        let params = Core.Params.sublinear ~h n in
        let protocol = Core.Sublinear.protocol ~params ~n ~h () in
        Exp_common.measure ~label:"sublinear-h1" ~protocol
          ~init:(fun rng -> Core.Scenarios.sublinear_name_collision rng ~params ~n)
          ~expected_time:(float_of_int (params.Core.Params.d_max + (4 * params.Core.Params.t_h) + 50))
          ~jobs ~trials ~seed:(seed + 3) ())
  in
  (* The Table-1 scaling figure: all four sweeps on one log-log chart
     with their regression overlays (a no-op unless experiments_main
     --out-dir installed a figure registry). *)
  Viz.Figures.emit "table1-slope"
    (Viz.Charts.slope_points ~title:"Table 1: convergence time vs population size"
       [
         ("silent-n-state", fit_points row1);
         ("optimal-silent", fit_points row2);
         ("sublinear-log", fit_points row3);
         ("sublinear-h1", fit_points row4);
       ]);
  (* States column. *)
  let table = Stats.Table.create ~header:[ "protocol"; "n"; "states"; "log2(states)" ] in
  List.iter
    (fun n ->
      List.iter
        (fun row ->
          Stats.Table.add_row table
            [
              row.Core.State_space.protocol;
              string_of_int n;
              (match row.Core.State_space.exact with Some c -> string_of_int c | None -> "≈2^(log2 col)");
              Stats.Table.cell_float row.Core.State_space.log2;
            ])
        (Core.State_space.table1_rows ~n))
    [ 16; 64; 256 ];
  buffer_add_table buf "States column (exact counts / log2 estimates)" table;
  (* Measured distinct states actually visited: an empirical lower bound
     witnessing that the linear-state protocols really use Θ(n) states
     (Theorem 2.1 forces >= n). Snapshots are taken throughout a run from
     an adversarial start. *)
  let measure_visited (type s) ~(protocol : s Engine.Protocol.t) ~init ~steps ~snapshots_every =
    let rng = Prng.create ~seed:(seed + 9) in
    let exec = Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng () in
    let snapshots = ref [ Engine.Exec.snapshot exec ] in
    for k = 1 to steps / snapshots_every do
      Engine.Runner.run_while exec ~max_interactions:(k * snapshots_every) (fun () -> true);
      snapshots := Engine.Exec.snapshot exec :: !snapshots
    done;
    Core.State_space.count_distinct_visited ~equal:protocol.Engine.Protocol.equal
      ~snapshots:!snapshots
  in
  let table = Stats.Table.create ~header:[ "protocol"; "n"; "distinct states visited"; "theoretical" ] in
  let n = 16 in
  let rng = Prng.create ~seed:(seed + 8) in
  let visited_silent =
    measure_visited ~protocol:(Core.Silent_n_state.protocol ~n)
      ~init:(Core.Scenarios.silent_uniform rng ~n) ~steps:(40 * n * n) ~snapshots_every:(2 * n)
  in
  Stats.Table.add_row table
    [ "Silent-n-state-SSR"; string_of_int n; string_of_int visited_silent; string_of_int n ];
  let params = Core.Params.optimal_silent n in
  let visited_optimal =
    measure_visited
      ~protocol:(Core.Optimal_silent.protocol ~params ~n ())
      ~init:(Core.Scenarios.optimal_uniform rng ~params ~n)
      ~steps:(200 * n) ~snapshots_every:n
  in
  Stats.Table.add_row table
    [
      "Optimal-Silent-SSR";
      string_of_int n;
      string_of_int visited_optimal;
      string_of_int (Core.Optimal_silent.states ~params ~n);
    ];
  buffer_add_table buf
    "Distinct states visited in one adversarial run (empirical lower bound; Theorem 2.1 requires ≥ n)"
    table;
  Buffer.contents buf
