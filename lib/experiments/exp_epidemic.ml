let name = "epidemic"

let description = "Sections 1.1 & 2: epidemic, bounded epidemic (τ_k), roll call"

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Experiment EP: probabilistic tools ==\n\n";
  let trials = Exp_common.trials_of_mode mode ~base:60 in
  (* Two-way epidemic vs ln n. *)
  let ns =
    match mode with
    | Exp_common.Quick -> [ 64; 256; 1024 ]
    | Exp_common.Full -> [ 64; 256; 1024; 4096; 16384 ]
  in
  let table = Stats.Table.create ~header:[ "n"; "mean time"; "p95"; "theory (≈ 2 ln n)" ] in
  List.iter
    (fun n ->
      let samples =
        Fleet.Run.run_trials ~jobs ~trials ~seed:(seed + n) (fun _ rng ->
            (Processes.Epidemic.run rng ~n).Processes.Epidemic.completion_time)
      in
      let s = Stats.Summary.of_array samples in
      Stats.Table.add_row table
        [
          string_of_int n;
          Stats.Table.cell_float s.Stats.Summary.mean;
          Stats.Table.cell_float s.Stats.Summary.p95;
          Stats.Table.cell_float (2.0 *. log (float_of_int n));
        ])
    ns;
  Buffer.add_string buf "Two-way epidemic completion (parallel time)\n";
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf "\n\n";
  (* Bounded epidemic: E[tau_k] against the paper's k·n^{1/k} shape. *)
  let n = match mode with Exp_common.Quick -> 256 | Exp_common.Full -> 1024 in
  let tau_trials = Exp_common.trials_of_mode mode ~base:30 in
  let ks = [ 1; 2; 3; 4; 6; 8; Core.Params.ceil_log2 n ] in
  let table2 =
    Stats.Table.create ~header:[ "k"; "mean τ_k"; "p95"; "k·n^(1/k)"; "mean/(k·n^(1/k))" ]
  in
  List.iter
    (fun k ->
      let samples =
        Fleet.Run.run_trials ~jobs ~trials:tau_trials ~seed:(seed + (100 * k)) (fun _ rng ->
            Processes.Bounded_epidemic.tau_sample rng ~n ~k)
      in
      let s = Stats.Summary.of_array samples in
      let bound = Stats.Theory.bounded_epidemic_bound ~n ~k in
      Stats.Table.add_row table2
        [
          string_of_int k;
          Stats.Table.cell_float s.Stats.Summary.mean;
          Stats.Table.cell_float s.Stats.Summary.p95;
          Stats.Table.cell_float bound;
          Stats.Table.cell_float (s.Stats.Summary.mean /. bound);
        ])
    (List.sort_uniq compare ks);
  Buffer.add_string buf (Printf.sprintf "Bounded epidemic hitting times, n=%d\n" n);
  Buffer.add_string buf (Stats.Table.render table2);
  Buffer.add_string buf
    "\n(the ratio column must stay O(1): E[τ_k] = O(k·n^{1/k}), Section 1.1)\n\n";
  (* Roll call: ≈1.5× the epidemic. *)
  let ns3 = match mode with Exp_common.Quick -> [ 64; 256 ] | Exp_common.Full -> [ 64; 256; 1024 ] in
  let table3 =
    Stats.Table.create ~header:[ "n"; "roll call mean"; "epidemic mean"; "ratio (paper ≈1.5)" ]
  in
  List.iter
    (fun n ->
      let pairs =
        Fleet.Run.run_trials ~jobs ~trials ~seed:(seed + (3 * n) + 1) (fun _ rng ->
            let roll = (Processes.Roll_call.run rng ~n).Processes.Roll_call.completion_time in
            let epi = (Processes.Epidemic.run rng ~n).Processes.Epidemic.completion_time in
            (roll, epi))
      in
      let mr = Stats.Summary.mean (Array.map fst pairs)
      and me = Stats.Summary.mean (Array.map snd pairs) in
      Stats.Table.add_row table3
        [
          string_of_int n;
          Stats.Table.cell_float mr;
          Stats.Table.cell_float me;
          Stats.Table.cell_float (mr /. me);
        ])
    ns3;
  Buffer.add_string buf "Roll call vs epidemic\n";
  Buffer.add_string buf (Stats.Table.render table3);
  Buffer.add_string buf "\n\n";
  (* Synthetic coins (footnotes 5-6). Two views: (a) the bias of the single
     bit harvested right after a given warm-up, across restarts from the
     fully correlated all-zero start — it decays from 1/2 (the first coin
     observed is always 0) to ~0 within O(n) interactions; (b) the long-run
     stream quality (bias and lag-1 correlation). *)
  let n = 64 in
  let restarts = match mode with Exp_common.Quick -> 4_000 | Exp_common.Full -> 20_000 in
  let table4 = Stats.Table.create ~header:[ "warmup (interactions)"; "restarts"; "bias of next bit" ] in
  List.iter
    (fun warmup ->
      let bits =
        Fleet.Run.run_trials ~jobs ~trials:restarts ~seed:(seed + warmup + 7) (fun _ rng ->
            (Processes.Synthetic_coin.harvest rng ~n ~warmup ~count:1).(0))
      in
      let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bits in
      Stats.Table.add_row table4
        [
          string_of_int warmup;
          string_of_int restarts;
          Stats.Table.cell_float ~decimals:4
            (Float.abs ((float_of_int ones /. float_of_int restarts) -. 0.5));
        ])
    [ 0; 8; 32; n; 4 * n ];
  Buffer.add_string buf
    (Printf.sprintf "Synthetic coins at n=%d (paper footnotes 5-6), from all-zero coins\n" n);
  Buffer.add_string buf (Stats.Table.render table4);
  Buffer.add_string buf "\n";
  let samples = match mode with Exp_common.Quick -> 20_000 | Exp_common.Full -> 100_000 in
  let r =
    Processes.Synthetic_coin.measure (Prng.create ~seed:(seed + 11)) ~n ~warmup:(4 * n) ~samples
  in
  Buffer.add_string buf
    (Printf.sprintf "Warmed-up stream of %d bits: bias %.4f, lag-1 correlation %.4f\n"
       r.Processes.Synthetic_coin.samples r.Processes.Synthetic_coin.bias
       r.Processes.Synthetic_coin.serial_correlation);
  Buffer.contents buf
