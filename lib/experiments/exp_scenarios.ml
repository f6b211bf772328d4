let name = "scenarios"

let description = "Per-adversary fingerprint: every scenario of the catalogue, per protocol"

let scenario_header = [ "scenario"; "trials"; "mean"; "p95"; "max"; "fail"; "viol" ]

let row_of_measurement scenario (m : Exp_common.measurement) trials =
  if Array.length m.Exp_common.times = 0 then
    [ scenario; string_of_int trials; "-"; "-"; "-"; string_of_int m.Exp_common.failures;
      string_of_int m.Exp_common.violations ]
  else begin
    let s = Exp_common.summary m in
    [
      scenario;
      string_of_int s.Stats.Summary.count;
      Stats.Table.cell_float s.Stats.Summary.mean;
      Stats.Table.cell_float s.Stats.Summary.p95;
      Stats.Table.cell_float s.Stats.Summary.max;
      string_of_int m.Exp_common.failures;
      string_of_int m.Exp_common.violations;
    ]
  end

let sweep ?(engine = Engine.Exec.Agent) buf ~title ~protocol ~catalogue ~expected_time ~jobs
    ~trials ~seed =
  let table = Stats.Table.create ~header:scenario_header in
  List.iter
    (fun (scenario, gen) ->
      let m =
        Exp_common.measure ~label:scenario ~protocol ~init:gen
          ~expected_time ~engine ~jobs ~trials ~seed ()
      in
      Stats.Table.add_row table (row_of_measurement scenario m trials))
    catalogue;
  Buffer.add_string buf (title ^ "\n");
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf "\n\n"

(* Transient-fault recovery at populations only the count engine reaches:
   start from the correct silent ranking, corrupt a fraction of the agents,
   and measure re-stabilization. Exercises the count engine's fault
   injection and the runner's exact-silence shortcut end to end. *)
let recovery_at_scale buf ~n ~fraction ~jobs ~trials ~seed =
  let protocol = Core.Silent_n_state.protocol ~n in
  let table =
    Stats.Table.create
      ~header:[ "n"; "corrupted"; "trials"; "mean recovery"; "p95"; "fail"; "events mean" ]
  in
  let samples =
    Fleet.Run.run_trials ~jobs ~trials ~seed (fun _ rng ->
        let exec =
          Engine.Exec.make ~kind:Engine.Exec.Count ~protocol
            ~init:(Core.Scenarios.silent_correct ~n) ~rng ()
        in
        let corrupted =
          Engine.Exec.corrupt exec ~rng ~fraction (fun rng ->
              Core.Silent_n_state.state_of_rank0 (Prng.int rng n) ~n)
        in
        let o = Fleet.Run.stabilize ~expected_time:(float_of_int (n * n) /. 2.0) exec in
        (corrupted, o, Engine.Exec.events exec))
  in
  let corrupted = match samples.(0) with c, _, _ -> c in
  let times =
    Array.to_list samples
    |> List.filter_map (fun (_, o, _) ->
           if o.Engine.Runner.converged then Some o.Engine.Runner.convergence_time else None)
  in
  let failures = trials - List.length times in
  let events_mean =
    Array.fold_left (fun acc (_, _, e) -> acc +. float_of_int e) 0.0 samples
    /. float_of_int trials
  in
  let s = Stats.Summary.of_list times in
  Stats.Table.add_row table
    [
      string_of_int n;
      string_of_int corrupted;
      string_of_int trials;
      Stats.Table.cell_float s.Stats.Summary.mean;
      Stats.Table.cell_float s.Stats.Summary.p95;
      string_of_int failures;
      Stats.Table.cell_float events_mean;
    ];
  Buffer.add_string buf
    (Printf.sprintf
       "Recovery from a %.0f%% corruption burst (count engine, exact stabilization)\n"
       (fraction *. 100.0));
  Buffer.add_string buf (Stats.Table.render table);
  Buffer.add_string buf "\n\n"

let run ~mode ~seed ~jobs =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "== Experiment SN: adversary catalogue ==\n\n";
  let trials = Exp_common.trials_of_mode mode ~base:20 in
  let n_silent = match mode with Exp_common.Quick -> 16 | Exp_common.Full -> 32 in
  sweep buf
    ~title:(Printf.sprintf "Silent-n-state-SSR, n=%d" n_silent)
    ~protocol:(Core.Silent_n_state.protocol ~n:n_silent)
    ~catalogue:(Core.Scenarios.silent_catalogue ~n:n_silent)
    ~expected_time:(float_of_int (n_silent * n_silent))
    ~jobs ~trials ~seed;
  (* The same catalogue at a population the agent engine cannot sweep:
     the count engine's silence oracle keeps each trial at Θ(events). *)
  let n_scale = match mode with Exp_common.Quick -> 256 | Exp_common.Full -> 2048 in
  sweep ~engine:Engine.Exec.Count buf
    ~title:(Printf.sprintf "Silent-n-state-SSR at scale (count engine), n=%d" n_scale)
    ~protocol:(Core.Silent_n_state.protocol ~n:n_scale)
    ~catalogue:(Core.Scenarios.silent_catalogue ~n:n_scale)
    ~expected_time:(float_of_int (n_scale * n_scale))
    ~jobs ~trials ~seed:(seed + 10);
  recovery_at_scale buf ~n:n_scale ~fraction:0.1 ~jobs ~trials ~seed:(seed + 11);
  let n_opt = match mode with Exp_common.Quick -> 16 | Exp_common.Full -> 48 in
  let params = Core.Params.optimal_silent n_opt in
  sweep buf
    ~title:(Printf.sprintf "Optimal-Silent-SSR, n=%d" n_opt)
    ~protocol:(Core.Optimal_silent.protocol ~params ~n:n_opt ())
    ~catalogue:(Core.Scenarios.optimal_catalogue ~params ~n:n_opt)
    ~expected_time:(float_of_int (30 * n_opt))
    ~jobs ~trials ~seed:(seed + 1);
  List.iter
    (fun h ->
      let n_sub = match mode with Exp_common.Quick -> 8 | Exp_common.Full -> 16 in
      let params = Core.Params.sublinear ~h n_sub in
      sweep buf
        ~title:(Printf.sprintf "Sublinear-Time-SSR, n=%d, H=%d" n_sub h)
        ~protocol:(Core.Sublinear.protocol ~params ~n:n_sub ~h ())
        ~catalogue:(Core.Scenarios.sublinear_catalogue ~params ~n:n_sub)
        ~expected_time:
          (float_of_int (params.Core.Params.d_max + (8 * params.Core.Params.t_h) + (8 * n_sub)))
        ~jobs ~trials ~seed:(seed + 2 + h))
    (match mode with Exp_common.Quick -> [ 1 ] | Exp_common.Full -> [ 0; 1; 2 ]);
  Buffer.add_string buf
    "(viol counts runs that re-entered incorrectness after first looking correct:\n\
     planted ranks or forged trees can make the monitor see a transiently\n\
     'correct' configuration that the protocol then justifiedly tears down)\n";
  Buffer.contents buf
