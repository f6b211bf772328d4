let name = "silent_lb"

let description = "Observation 2.2: silent SSLE protocols need Ω(n) time"

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Experiment O2.2: silent lower bound ==\n\n";
  let trials = Exp_common.trials_of_mode mode ~base:30 in
  let ns = match mode with Exp_common.Quick -> [ 16; 32; 64 ] | Exp_common.Full -> [ 16; 32; 64; 128; 256 ] in
  (* Convergence from a silent configuration with a planted duplicate, for
     both silent protocols. The lower bound says mean >= ~n/3. *)
  let table =
    Stats.Table.create
      ~header:([ "protocol" ] @ Exp_common.time_header @ [ "LB n/3"; "mean/(n/3)" ])
  in
  List.iter
    (fun n ->
      let lb = float_of_int n /. 3.0 in
      let add_row label m =
        Stats.Table.add_row table
          ([ label ] @ Exp_common.time_row m
          @ [ Stats.Table.cell_float lb; Stats.Table.cell_float (Exp_common.mean_time m /. lb) ])
      in
      let m1 =
        let protocol = Core.Silent_n_state.protocol ~n in
        Exp_common.measure ~label:"planted" ~protocol
          ~init:(fun rng ->
            let config = Core.Scenarios.silent_correct ~n in
            (* Duplicate a random agent's rank onto another agent. *)
            let victim, source = Prng.distinct_pair rng n in
            config.(victim) <- config.(source);
            config)
          ~expected_time:(Stats.Theory.quadratic_barrier_time n)
          ~jobs ~trials ~seed ()
      in
      add_row "Silent-n-state-SSR" m1;
      let m2 =
        let params = Core.Params.optimal_silent n in
        let protocol = Core.Optimal_silent.protocol ~params ~n () in
        Exp_common.measure ~label:"planted" ~protocol
          ~init:(fun rng -> Core.Scenarios.optimal_duplicate_rank rng ~n)
          ~expected_time:(float_of_int (20 * n))
          ~jobs ~trials ~seed:(seed + 1) ()
      in
      add_row "Optimal-Silent-SSR" m2)
    ns;
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf "\n\n";
  (* Tail bound: P[meeting time >= alpha n ln n] vs the bound (1/2)n^{-3alpha}.
     The meeting time of the planted pair is exactly geometric, so we sample
     it directly with many trials. *)
  let n = match mode with Exp_common.Quick -> 32 | Exp_common.Full -> 64 in
  let tail_trials = match mode with Exp_common.Quick -> 20_000 | Exp_common.Full -> 100_000 in
  let rng = Prng.create ~seed:(seed + 2) in
  let samples = Processes.Coupon.meeting_times rng ~n ~trials:tail_trials in
  let hist = Stats.Histogram.of_samples ~lo:0.0 ~hi:(4.0 *. float_of_int n) ~bins:16 samples in
  let table2 =
    Stats.Table.create ~header:[ "alpha"; "threshold (αn ln n)"; "empirical P[≥]"; "bound ½n^(-3α)" ]
  in
  List.iter
    (fun alpha ->
      let threshold = alpha *. float_of_int n *. log (float_of_int n) in
      Stats.Table.add_row table2
        [
          Stats.Table.cell_float ~decimals:2 alpha;
          Stats.Table.cell_float threshold;
          Stats.Table.cell_float ~decimals:5 (Stats.Histogram.fraction_at_least hist threshold);
          Stats.Table.cell_float ~decimals:5 (Stats.Theory.silent_lb_tail ~n ~alpha);
        ])
    [ 0.1; 0.2; 0.33; 0.5 ];
  Buffer.add_string buf
    (Printf.sprintf "Tail of the planted-pair meeting time, n=%d, %d samples\n" n tail_trials);
  Buffer.add_string buf (Stats.Table.render table2);
  Buffer.add_string buf
    "\n(the empirical tail must dominate the bound: Observation 2.2 is a lower bound)\n\n";
  Buffer.add_string buf
    (Printf.sprintf "Distribution of the planted-pair meeting time (n=%d; geometric: the\nmemoryless heavy tail that makes silent protocols slow)\n" n);
  Buffer.add_string buf (Stats.Histogram.render ~width:40 hist);
  Buffer.contents buf
