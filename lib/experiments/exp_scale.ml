let name = "scale"

let description = "Table 1 row 1 at scale: exact Θ(n²) stabilization via the count-based engine"

(* The stopping rule of every run to stability ([Exp_common.measure]
   through [Fleet.Run.stabilize]), just on the count-based executor: the
   exact-silence oracle reports stabilization with no confirmation window,
   so populations of several thousands stay cheap. *)
let measure ~scenario ~make_init ~ns ~jobs ~trials ~seed buf =
  let table =
    Stats.Table.create
      ~header:[ "n"; "trials"; "mean time"; "±95%"; "p95"; "events mean"; "theory (n-1)²/2"; "mean/theory" ]
  in
  let points =
    List.map
      (fun n ->
        let protocol = Core.Silent_n_state.protocol ~n in
        let theory = Stats.Theory.quadratic_barrier_time n in
        let m =
          Exp_common.measure ~label:"silent-n-state-scale" ~protocol
            ~init:(fun rng -> make_init rng ~n)
            ~expected_time:theory
            ~engine:Engine.Exec.Count ~jobs ~trials ~seed ()
        in
        if m.Exp_common.failures > 0 || m.Exp_common.silent_ok < m.Exp_common.silent_checked
        then failwith "count engine failed to reach the silent correct configuration";
        let t = Stats.Summary.of_array m.Exp_common.times in
        let e =
          Stats.Summary.of_array (Array.map float_of_int m.Exp_common.events)
        in
        Stats.Table.add_row table
          [
            string_of_int n;
            string_of_int trials;
            Stats.Table.cell_float t.Stats.Summary.mean;
            Stats.Table.cell_float (1.96 *. t.Stats.Summary.stddev /. sqrt (float_of_int trials));
            Stats.Table.cell_float t.Stats.Summary.p95;
            Stats.Table.cell_float e.Stats.Summary.mean;
            Stats.Table.cell_float theory;
            Stats.Table.cell_float (t.Stats.Summary.mean /. theory);
          ];
        (n, t.Stats.Summary.mean))
      ns
  in
  let fit = Stats.Regression.log_log (List.map (fun (n, m) -> (float_of_int n, m)) points) in
  Buffer.add_string buf (scenario ^ "\n");
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf
    (Printf.sprintf "\nlog-log fit: slope=%.3f (paper predicts 2.000), r2=%.4f\n\n"
       fit.Stats.Regression.slope fit.Stats.Regression.r2)

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Experiment SC: Silent-n-state-SSR at scale (exact, count engine) ==\n\n";
  let trials = Exp_common.trials_of_mode mode ~base:30 in
  let ns =
    match mode with
    | Exp_common.Quick -> [ 64; 256; 1024 ]
    | Exp_common.Full -> [ 64; 128; 256; 512; 1024; 2048; 4096 ]
  in
  measure ~scenario:"Worst case (barrier configuration; exactly n-1 productive events)"
    ~make_init:(fun _rng ~n -> Core.Scenarios.silent_worst_case ~n)
    ~ns ~jobs ~trials ~seed buf;
  let ns_uniform =
    match mode with Exp_common.Quick -> [ 64; 256 ] | Exp_common.Full -> [ 64; 128; 256; 512; 1024 ]
  in
  measure ~scenario:"Uniform adversarial ranks"
    ~make_init:(fun rng ~n -> Core.Scenarios.silent_uniform rng ~n)
    ~ns:ns_uniform ~jobs ~trials ~seed:(seed + 1) buf;
  Buffer.contents buf
