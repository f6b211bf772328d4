let name = "tradeoff"

let description = "Table 1 row 4 / Section 5.2: Sublinear-Time-SSR time/space tradeoff in H"

(* Parallel time until the hidden name collision is first detected (some
   agent enters the Resetting role) — the Θ(H·n^{1/(H+1)}) component of
   Section 5.2, isolated from the Θ(log n) reset/rebuild overhead. *)
let detection_latency ~protocol ~init ~rng ~horizon =
  let exec = Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng () in
  let n = Engine.Exec.n exec in
  let detected () =
    let rec check i =
      i < n
      &&
      match Engine.Exec.state exec i with
      | Core.Reset.Resetting _ -> true
      | Core.Reset.Computing _ -> check (i + 1)
    in
    check 0
  in
  Engine.Runner.run_while exec ~max_interactions:horizon (fun () -> not (detected ()));
  if detected () then Some (Engine.Exec.parallel_time exec) else None

let measure_detection ~n ~h ~jobs ~trials ~seed =
  let params = Core.Params.sublinear ~h n in
  let protocol = Core.Sublinear.protocol ~params ~n ~h () in
  let outcomes =
    Fleet.Run.run_trials ~jobs ~trials ~seed (fun _ rng ->
        let init = Core.Scenarios.sublinear_name_collision rng ~params ~n in
        detection_latency ~protocol ~init ~rng ~horizon:(400 * n * n))
  in
  let times = Array.to_list outcomes |> List.filter_map Fun.id in
  let missed = trials - List.length times in
  (Stats.Summary.of_list times, missed)

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Experiment T1.4: time/space tradeoff in H ==\n\n";
  let trials = Exp_common.trials_of_mode mode ~base:30 in
  (* H sweep at fixed n: detection latency falls, state estimate explodes. *)
  let n_fixed = match mode with Exp_common.Quick -> 32 | Exp_common.Full -> 64 in
  let hs = [ 0; 1; 2; 3 ] in
  let table =
    Stats.Table.create
      ~header:[ "H"; "T_H"; "mean detect"; "p95"; "missed"; "theory H·n^(1/(H+1))"; "log2(states)" ]
  in
  List.iter
    (fun h ->
      let params = Core.Params.sublinear ~h n_fixed in
      let s, missed = measure_detection ~n:n_fixed ~h ~jobs ~trials ~seed in
      let theory =
        float_of_int (max h 1) *. (float_of_int n_fixed ** (1.0 /. float_of_int (h + 1)))
      in
      Stats.Table.add_row table
        [
          string_of_int h;
          string_of_int params.Core.Params.t_h;
          Stats.Table.cell_float s.Stats.Summary.mean;
          Stats.Table.cell_float s.Stats.Summary.p95;
          string_of_int missed;
          Stats.Table.cell_float theory;
          Stats.Table.cell_float (Core.Sublinear.log2_states ~params ~n:n_fixed);
        ])
    hs;
  Buffer.add_string buf (Printf.sprintf "Detection latency vs H at n=%d\n" n_fixed);
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf "\n\n";
  (* n sweep at fixed H: log-log slope ≈ 1/(H+1). *)
  List.iter
    (fun h ->
      let ns =
        match (mode, h) with
        | Exp_common.Quick, _ -> [ 8; 16; 32 ]
        | Exp_common.Full, 0 -> [ 8; 16; 32; 64; 128 ]
        | Exp_common.Full, 1 -> [ 8; 16; 32; 64; 128 ]
        | Exp_common.Full, _ -> [ 8; 16; 32; 64 ]
      in
      let table = Stats.Table.create ~header:[ "n"; "mean detect"; "p95"; "missed" ] in
      let points =
        List.map
          (fun n ->
            let s, missed = measure_detection ~n ~h ~jobs ~trials ~seed:(seed + h) in
            Stats.Table.add_row table
              [
                string_of_int n;
                Stats.Table.cell_float s.Stats.Summary.mean;
                Stats.Table.cell_float s.Stats.Summary.p95;
                string_of_int missed;
              ];
            (float_of_int n, s.Stats.Summary.mean))
          ns
      in
      let fit = Stats.Regression.log_log points in
      Buffer.add_string buf (Printf.sprintf "Detection latency vs n at H=%d\n" h);
      Buffer.add_string buf (Stats.Table.render table);
      Buffer.add_string buf
        (Printf.sprintf "\nlog-log slope=%.3f (paper predicts ≈ %.3f = 1/(H+1)), r2=%.4f\n\n"
           fit.Stats.Regression.slope
           (1.0 /. float_of_int (h + 1))
           fit.Stats.Regression.r2))
    [ 0; 1; 2 ];
  Buffer.contents buf
