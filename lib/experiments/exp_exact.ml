let name = "exact"

let description = "Exhaustive Markov-chain validation of Silent-n-state-SSR at small n"

(* Both engines run through the same measurement policy; only the executor
   kind differs. On [Count] the exact-silence oracle reports stabilization
   with no confirmation window (for Silent-n-state-SSR correctness and
   silence coincide, so the entry point equals the silence time). *)
let simulate ~engine ~protocol ~init ~jobs ~trials ~seed =
  let n = protocol.Engine.Protocol.n in
  let times =
    Fleet.Run.run_trials ~jobs ~trials ~seed (fun _ rng ->
        let exec = Engine.Exec.make ~kind:engine ~protocol ~init ~rng () in
        let o =
          Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
            ~max_interactions:(1000 * n * n)
            ~confirm_interactions:(Engine.Runner.default_confirm ~n)
            exec
        in
        o.Engine.Runner.convergence_time)
  in
  Stats.Summary.mean times

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "== Experiment EX: exhaustive small-n validation ==\n\n";
  let ns = match mode with Exp_common.Quick -> [ 3; 4; 5 ] | Exp_common.Full -> [ 3; 4; 5; 6; 7 ] in
  let trials = Exp_common.trials_of_mode mode ~base:3000 in
  let table =
    Stats.Table.create
      ~header:
        [
          "n"; "configs"; "absorbing"; "absorbing correct"; "worst exact"; "count-engine mean";
          "array-engine mean"; "rel err";
        ]
  in
  List.iter
    (fun n ->
      let e = Core.Silent_n_state.enumerable ~n in
      let protocol = e.Engine.Enumerable.protocol in
      let a = Engine.Pool.with_pool ~jobs (fun pool -> Analysis.Model_check.chain ~pool e) in
      let exact, witness = Analysis.Model_check.worst_expected_time a in
      let count_mean =
        simulate ~engine:Engine.Exec.Count ~protocol ~init:witness ~jobs ~trials ~seed
      in
      let array_mean =
        simulate ~engine:Engine.Exec.Agent ~protocol ~init:witness ~jobs
          ~trials:(trials / 10) ~seed:(seed + 1)
      in
      Stats.Table.add_row table
        [
          string_of_int n;
          string_of_int (Analysis.Model_check.configurations a);
          string_of_int (Analysis.Model_check.absorbing a);
          string_of_bool (Analysis.Model_check.all_absorbing_correct a);
          Stats.Table.cell_float ~decimals:3 exact;
          Stats.Table.cell_float ~decimals:3 count_mean;
          Stats.Table.cell_float ~decimals:3 array_mean;
          Stats.Table.cell_float ~decimals:4 (Float.abs (count_mean -. exact) /. exact);
        ])
    ns;
  Buffer.add_string buf
    "Worst-configuration stabilization: exact (solved chain) vs simulated means\n";
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf
    "\n\n(absorbing = 1 and 'absorbing correct' = true model-check self-stabilization:\n\
     the unique silent configuration is the correct ranking, from every start)\n";
  Buffer.contents buf
