let name = "quadratic_lb"

let description = "Section 2: Ω(n²) barrier configuration of Silent-n-state-SSR"

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Experiment Q: Silent-n-state-SSR worst case ==\n\n";
  let trials = Exp_common.trials_of_mode mode ~base:30 in
  let ns = match mode with Exp_common.Quick -> [ 8; 16; 32; 64 ] | Exp_common.Full -> [ 8; 16; 32; 64; 128 ] in
  let table =
    Stats.Table.create ~header:(Exp_common.time_header @ [ "theory (n-1)^2/2"; "mean/theory" ])
  in
  let points =
    List.map
      (fun n ->
        let protocol = Core.Silent_n_state.protocol ~n in
        let m =
          Exp_common.measure ~label:"worst" ~protocol
            ~init:(fun _ -> Core.Scenarios.silent_worst_case ~n)
            ~expected_time:(Stats.Theory.quadratic_barrier_time n)
            ~jobs ~trials ~seed ()
        in
        let theory = Stats.Theory.quadratic_barrier_time n in
        Stats.Table.add_row table
          (Exp_common.time_row m
          @ [
              Stats.Table.cell_float theory;
              Stats.Table.cell_float (Exp_common.mean_time m /. theory);
            ]);
        (n, m))
      ns
  in
  Buffer.add_string buf (Stats.Table.render table);
  let fit = Exp_common.scaling_fit points in
  Buffer.add_string buf
    (Printf.sprintf "\n\nlog-log fit: slope=%.3f (paper predicts 2.0), r2=%.4f\n"
       fit.Stats.Regression.slope fit.Stats.Regression.r2);
  Buffer.contents buf
