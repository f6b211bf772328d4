(* Benchmark harness.

   Two layers, both in this executable:

   1. The paper-shaped experiment tables (one section per table/figure/
      claim of the paper, via the Experiments library, quick mode):
      regenerates the rows of Table 1, the H-tradeoff (Table 1 row 4 /
      Section 5.2), Figures 1-2, Observation 2.2, the Ω(n²) worst case,
      Theorem 2.1's nonuniformity, Propagate-Reset and the probabilistic
      toolbox. `main.exe <name>` runs a single section; `main.exe --full`
      uses the full-size sweeps.

   2. Bechamel micro-benchmarks of the simulator and protocol hot paths
      (one Test.make per table/figure artifact), reporting wall-clock per
      run. *)

open Bechamel
open Toolkit

let n_bench = 64

let make_sim ~protocol ~init ~seed =
  Engine.Sim.make ~protocol ~init ~rng:(Prng.create ~seed)

(* Table 1 row 1: interaction throughput of Silent-n-state-SSR. *)
let bench_silent_n_state () =
  let n = n_bench in
  let protocol = Core.Silent_n_state.protocol ~n in
  let rng = Prng.create ~seed:1 in
  let sim = make_sim ~protocol ~init:(Core.Scenarios.silent_uniform rng ~n) ~seed:2 in
  Test.make ~name:"table1/silent-n-state/1k-interactions"
    (Staged.stage (fun () -> Engine.Sim.run sim 1000))

(* Table 1 row 2: Optimal-Silent-SSR. *)
let bench_optimal_silent () =
  let n = n_bench in
  let params = Core.Params.optimal_silent n in
  let protocol = Core.Optimal_silent.protocol ~params ~n () in
  let rng = Prng.create ~seed:3 in
  let sim = make_sim ~protocol ~init:(Core.Scenarios.optimal_uniform rng ~params ~n) ~seed:4 in
  Test.make ~name:"table1/optimal-silent/1k-interactions"
    (Staged.stage (fun () -> Engine.Sim.run sim 1000))

(* Table 1 rows 3-4: Sublinear-Time-SSR at H=1 and H=⌈log₂ n⌉. *)
let bench_sublinear ~n ~h ~steps ~label =
  let params = Core.Params.sublinear ~h n in
  let protocol = Core.Sublinear.protocol ~params ~n ~h () in
  let rng = Prng.create ~seed:5 in
  let sim = make_sim ~protocol ~init:(Core.Scenarios.sublinear_fresh rng ~params ~n) ~seed:6 in
  Test.make ~name:label (Staged.stage (fun () -> Engine.Sim.run sim steps))

(* Figure 1: a complete leader-driven ranking phase. *)
let bench_ranking_phase () =
  let n = 32 in
  let params = Core.Params.optimal_silent n in
  let protocol = Core.Optimal_silent.protocol ~params ~n () in
  let init =
    Array.init n (fun i ->
        if i = 0 then Core.Optimal_silent.settled ~rank:1 ~children:0
        else Core.Optimal_silent.unsettled ~errorcount:params.Core.Params.e_max)
  in
  let seed = ref 0 in
  Test.make ~name:"figure1/ranking-phase-n32"
    (Staged.stage (fun () ->
         incr seed;
         let sim = make_sim ~protocol ~init ~seed:!seed in
         let confirm = Engine.Runner.default_confirm ~n in
         ignore
           (Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
              ~max_interactions:(1000 * n) ~confirm_interactions:confirm
              (Engine.Exec.of_sim sim))))

(* Executor-interface overhead: the same per-interaction loop as
   figure1's runner path, but driven bare vs through Exec.advance, so a
   regression in the first-class-module indirection is visible on its
   own. *)
let bench_exec_overhead () =
  let n = n_bench in
  let protocol = Core.Silent_n_state.protocol ~n in
  let rng = Prng.create ~seed:11 in
  let sim = make_sim ~protocol ~init:(Core.Scenarios.silent_uniform rng ~n) ~seed:12 in
  let exec = Engine.Exec.of_sim sim in
  Test.make ~name:"exec/agent-advance/1k-interactions"
    (Staged.stage (fun () ->
         for _ = 1 to 1000 do
           ignore (Engine.Exec.advance exec ~until:max_int)
         done))

(* Figure 2: history-tree merge and path enumeration. *)
let bench_history_tree () =
  let h = 3 in
  let params = Core.Params.sublinear ~h 16 in
  let rng = Prng.create ~seed:7 in
  let names = Array.init 8 (fun i -> Core.Name.of_int ~bits:i ~len:params.Core.Params.name_bits) in
  (* build moderately bushy trees by simulating a few meetings *)
  let trees = Array.make 8 Core.History_tree.empty in
  for round = 0 to 40 do
    let i = round mod 8 and j = (round + 1 + (round mod 5)) mod 8 in
    if i <> j then begin
      let sync = 1 + Prng.int rng params.Core.Params.s_max in
      let ti = trees.(i) and tj = trees.(j) in
      trees.(i) <-
        Core.History_tree.merge ~h ~own:names.(i) ~partner:names.(j) ~partner_tree:tj ~sync
          ~timer:params.Core.Params.t_h ti;
      trees.(j) <-
        Core.History_tree.merge ~h ~own:names.(j) ~partner:names.(i) ~partner_tree:ti ~sync
          ~timer:params.Core.Params.t_h tj
    end
  done;
  Test.make ~name:"figure2/tree-merge-and-paths"
    (Staged.stage (fun () ->
         let t =
           Core.History_tree.merge ~h ~own:names.(0) ~partner:names.(1) ~partner_tree:trees.(1)
             ~sync:42 ~timer:params.Core.Params.t_h trees.(0)
         in
         ignore (Core.History_tree.fresh_paths_to ~name:names.(2) t)))

(* Observation 2.2: the generic silence check used on every converged run. *)
let bench_silence_check () =
  let n = n_bench in
  let protocol = Core.Silent_n_state.protocol ~n in
  let config = Core.Scenarios.silent_correct ~n in
  Test.make ~name:"obs2.2/silence-check-n64"
    (Staged.stage (fun () -> ignore (Engine.Silence.configuration_is_silent protocol config)))

(* Probabilistic toolbox (Sections 1.1 & 2). *)
let bench_epidemic () =
  let rng = Prng.create ~seed:8 in
  Test.make ~name:"toolbox/epidemic-n1024"
    (Staged.stage (fun () -> ignore (Processes.Epidemic.run rng ~n:1024)))

let bench_roll_call () =
  let rng = Prng.create ~seed:9 in
  Test.make ~name:"toolbox/roll-call-n256"
    (Staged.stage (fun () -> ignore (Processes.Roll_call.run rng ~n:256)))

(* Section 3: one Propagate-Reset step on a resetting pair. *)
let bench_reset_step () =
  let params = Core.Params.sublinear ~h:1 n_bench in
  let n = n_bench and h = 1 in
  let protocol = Core.Sublinear.protocol ~params ~n ~h () in
  let rng = Prng.create ~seed:10 in
  let a =
    Core.Sublinear.resetting ~name:Core.Name.empty ~resetcount:params.Core.Params.r_max
      ~delaytimer:params.Core.Params.d_max
  in
  let b = Core.Sublinear.fresh rng ~params in
  Test.make ~name:"reset/propagate-step"
    (Staged.stage (fun () -> ignore (protocol.Engine.Protocol.transition rng a b)))

let micro_tests () =
  Test.make_grouped ~name:"repro" ~fmt:"%s %s"
    [
      bench_silent_n_state ();
      bench_optimal_silent ();
      bench_sublinear ~n:32 ~h:1 ~steps:200 ~label:"table1/sublinear-h1/200-interactions";
      bench_sublinear ~n:8 ~h:3 ~steps:200 ~label:"table1/sublinear-hlog/200-interactions";
      bench_ranking_phase ();
      bench_exec_overhead ();
      bench_history_tree ();
      bench_silence_check ();
      bench_epidemic ();
      bench_roll_call ();
      bench_reset_step ();
    ]

let run_micro_benchmarks () =
  print_endline "== Bechamel micro-benchmarks (wall clock per run) ==\n";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (micro_tests ()) in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name est acc -> (name, est) :: acc) results [] in
  let table = Stats.Table.create ~header:[ "benchmark"; "time per run" ] in
  List.iter
    (fun (name, est) ->
      let cell =
        match Analyze.OLS.estimates est with
        | Some [ ns ] ->
            if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
            else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
            else Printf.sprintf "%.0f ns" ns
        | Some _ | None -> "n/a"
      in
      Stats.Table.add_row table [ name; cell ])
    (List.sort compare rows);
  Stats.Table.print table;
  print_newline ()

(* Engine-counter deltas printed next to the timings: one seeded
   worst-case run of Silent-n-state-SSR on each engine, with the counters
   both engines keep anyway (Engine.Exec.stats). Makes a throughput
   regression attributable — e.g. null-skipping getting less effective
   shows up here before it shows up in the micro-benchmark table. *)
let run_metrics_section () =
  print_endline "== Engine metrics (silent protocol, n=256, worst-case, seed 2024) ==\n";
  let n = 256 in
  let protocol = Core.Silent_n_state.protocol ~n in
  let run kind =
    let rng = Prng.create ~seed:2024 in
    let init = Core.Scenarios.silent_worst_case ~n in
    let exec = Engine.Exec.make ~kind ~protocol ~init ~rng () in
    let t0 = Unix.gettimeofday () in
    ignore
      (Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
         ~max_interactions:(Engine.Runner.default_horizon ~n ~expected_time:(float_of_int n))
         ~confirm_interactions:(Engine.Runner.default_confirm ~n)
         exec);
    (Engine.Exec.stats exec, Unix.gettimeofday () -. t0)
  in
  let agent, agent_s = run Engine.Exec.Agent in
  let count, count_s = run Engine.Exec.Count in
  let names =
    List.sort_uniq compare (List.map fst agent @ List.map fst count)
  in
  let cell stats name =
    match List.assoc_opt name stats with Some v -> Printf.sprintf "%.0f" v | None -> "-"
  in
  let table = Stats.Table.create ~header:[ "metric"; "agent"; "count" ] in
  List.iter (fun name -> Stats.Table.add_row table [ name; cell agent name; cell count name ]) names;
  Stats.Table.add_row table
    [ "wall clock (s)"; Printf.sprintf "%.3f" agent_s; Printf.sprintf "%.3f" count_s ];
  Stats.Table.print table;
  print_newline ()

(* Kernel-compiler delta table: the same agent-engine interaction loop
   driven by the interpreted transition vs the compiled kernel (memoized
   int-code table). The speedup column is the CI artifact that guards
   the compiler's reason to exist; the kernel columns make a slow compile
   or a skipped memoization visible next to it. *)
let run_kernel_section () =
  print_endline "== Kernel compiler: compiled vs interpreted step throughput ==\n";
  let steps = 4_000_000 in
  let mask = 0xFFFF in
  (* 65536 precomputed pairs, cycled *)
  let table =
    Stats.Table.create
      ~header:
        [
          "protocol"; "interp Msteps/s"; "compiled Msteps/s"; "step speedup"; "sim speedup";
          "states"; "table cells"; "compile ms";
        ]
  in
  let time run =
    ignore (run ());
    (* warmup *)
    let t0 = Unix.gettimeofday () in
    run ();
    Unix.gettimeofday () -. t0
  in
  let bench : 'a. label:string -> 'a Engine.Enumerable.t -> init:'a array -> unit =
   fun ~label e ~init ->
    let p = e.Engine.Enumerable.protocol in
    let kernel = Ir.Kernel.compile e in
    let m = Ir.Kernel.states kernel in
    (* Step throughput: the same uniformly random ordered pair schedule
       applied through the interpreted transition and the compiled one.
       This is the quantity the memo table optimizes; both loops pay the
       same schedule-indexing and call overhead. *)
    let sched = Prng.create ~seed:43 in
    let ka = Array.init (mask + 1) (fun _ -> Prng.int sched m) in
    let kb = Array.init (mask + 1) (fun _ -> Prng.int sched m) in
    let da = Array.map (Ir.Kernel.decode kernel) ka in
    let db = Array.map (Ir.Kernel.decode kernel) kb in
    let interp_tr = p.Engine.Protocol.transition in
    let compiled_tr = kernel.Ir.Kernel.compiled.Engine.Protocol.transition in
    let step_interp_s =
      time (fun () ->
          let rng = Prng.create ~seed:44 in
          for i = 0 to steps - 1 do
            let k = i land mask in
            ignore (interp_tr rng da.(k) db.(k))
          done)
    in
    let step_compiled_s =
      time (fun () ->
          let rng = Prng.create ~seed:44 in
          for i = 0 to steps - 1 do
            let k = i land mask in
            ignore (compiled_tr rng ka.(k) kb.(k))
          done)
    in
    (* End-to-end: a full agent-engine run (pair sampling, monitor and
       event bookkeeping included), interpreted vs compiled codes. *)
    let sim_steps = steps / 4 in
    let sim_interp_s =
      time (fun () ->
          let sim = Engine.Sim.make ~protocol:p ~init ~rng:(Prng.create ~seed:42) in
          Engine.Sim.run sim sim_steps)
    in
    let code_init = Array.map (Ir.Kernel.encode kernel) init in
    let sim_compiled_s =
      time (fun () ->
          let sim =
            Engine.Sim.make ~protocol:kernel.Ir.Kernel.compiled ~init:code_init
              ~rng:(Prng.create ~seed:42)
          in
          Engine.Sim.run sim sim_steps)
    in
    let mps s = float_of_int steps /. s /. 1e6 in
    Stats.Table.add_row table
      [
        label;
        Printf.sprintf "%.2f" (mps step_interp_s);
        Printf.sprintf "%.2f" (mps step_compiled_s);
        Printf.sprintf "%.2fx" (step_interp_s /. step_compiled_s);
        Printf.sprintf "%.2fx" (sim_interp_s /. sim_compiled_s);
        string_of_int m;
        (if kernel.Ir.Kernel.ir.Ir.table = None then "0" else string_of_int (m * m));
        Printf.sprintf "%.1f" (1000.0 *. kernel.Ir.Kernel.compile_s);
      ]
  in
  let n = 256 in
  bench ~label:(Printf.sprintf "silent-n-state n=%d" n)
    (Core.Silent_n_state.enumerable ~n)
    ~init:(Core.Scenarios.silent_worst_case ~n);
  let n = 64 in
  let params = Core.Params.optimal_silent n in
  bench
    ~label:(Printf.sprintf "optimal-silent n=%d" n)
    (Core.Optimal_silent.enumerable ~params ~n ())
    ~init:(Core.Scenarios.optimal_uniform (Prng.create ~seed:41) ~params ~n);
  Stats.Table.print table;
  print_newline ()

(* Eager vs lazy closure delta table: the same run_to_silence workload
   through the two probing modes of the count engine ([init_probe]
   forced on / off). The dense-transition rows are the lazy kernel's
   reason to exist — the eager fold probes (and then walks) a quadratic
   productive adjacency the run never uses, until the density cap
   demotes it. The sparse small-n row is the honest negative control:
   there the eager drain is strictly better (silence is provable the
   moment W hits 0, while the lazy engine must tick through unknown
   pairs until every null is cached), so eager remains the default for
   small initial supports. *)
let run_closure_section () =
  print_endline "== Count engine: eager vs lazy closure (run_to_silence) ==\n";
  let table =
    Stats.Table.create
      ~header:
        [
          "scenario"; "mode"; "silent"; "events"; "interactions"; "pairs probed";
          "cache cells"; "closure"; "wall s"; "events/s";
        ]
  in
  let bench : 'a. label:string -> protocol:'a Engine.Protocol.t -> init:'a array -> float array =
   fun ~label ~protocol ~init ->
    Array.map
      (fun eager ->
        let rng = Prng.create ~seed:2024 in
        let cs =
          Engine.Count_sim.make ~init_probe:eager ~protocol ~init:(Array.copy init) ~rng ()
        in
        let t0 = Unix.gettimeofday () in
        let o = Engine.Count_sim.run_to_silence cs in
        let wall = Unix.gettimeofday () -. t0 in
        Stats.Table.add_row table
          [
            label;
            (if eager then "eager" else "lazy");
            string_of_bool o.Engine.Count_sim.silent;
            string_of_int o.Engine.Count_sim.events;
            string_of_int o.Engine.Count_sim.interactions;
            string_of_int (Engine.Count_sim.pairs_probed cs);
            string_of_int (Engine.Count_sim.pairs_cached cs);
            string_of_int (Engine.Count_sim.closure_size cs);
            Printf.sprintf "%.3f" wall;
            Printf.sprintf "%.0f" (float_of_int o.Engine.Count_sim.events /. wall);
          ];
        wall)
      [| true; false |]
  in
  let deltas = ref [] in
  let record label walls = deltas := (label, walls.(0) /. walls.(1)) :: !deltas in
  (* dense: Optimal-Silent's counter states almost all interact *)
  List.iter
    (fun n ->
      let params = Core.Params.optimal_silent n in
      let protocol = Core.Optimal_silent.protocol ~params ~n () in
      let init = Core.Scenarios.optimal_uniform (Prng.create ~seed:7) ~params ~n in
      record
        (Printf.sprintf "optimal-silent n=%d (dense)" n)
        (bench ~label:(Printf.sprintf "optimal-silent n=%d (dense)" n) ~protocol ~init))
    [ 64; 128 ];
  (* sparse negative control: only the rank diagonal is productive *)
  let n = 64 in
  let protocol = Core.Silent_n_state.protocol ~n in
  let init = Core.Scenarios.silent_uniform (Prng.create ~seed:7) ~n in
  record
    (Printf.sprintf "silent-n-state n=%d (sparse)" n)
    (bench ~label:(Printf.sprintf "silent-n-state n=%d (sparse)" n) ~protocol ~init);
  Stats.Table.print table;
  print_newline ();
  List.iter
    (fun (label, ratio) ->
      Printf.printf "%s: eager/lazy wall-clock ratio %.2fx (%s)\n" label ratio
        (if ratio >= 1.0 then "lazy wins" else "eager wins"))
    (List.rev !deltas);
  print_newline ()

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  (* --jobs N: domain-pool width for the experiment sections (identical
     output for any value; micro-benchmarks are single-domain by nature). *)
  let rec extract_jobs acc = function
    | [] -> (None, List.rev acc)
    | "--jobs" :: v :: rest -> (
        match int_of_string_opt v with
        | Some j when j >= 1 -> (Some j, List.rev_append acc rest)
        | Some _ | None ->
            Printf.eprintf "--jobs expects a positive integer (got %s)\n" v;
            exit 2)
    | [ "--jobs" ] ->
        Printf.eprintf "--jobs expects a value\n";
        exit 2
    | a :: rest -> extract_jobs (a :: acc) rest
  in
  let jobs_opt, args = extract_jobs [] args in
  let jobs =
    match Engine.Pool.resolve_jobs jobs_opt with
    | Ok j -> j
    | Error msg ->
        prerr_endline msg;
        exit 2
  in
  let full = List.mem "--full" args in
  let micro_only = List.mem "--micro-only" args in
  let kernel_only = List.mem "--kernel-only" args in
  let closure_only = List.mem "--closure-only" args in
  let names =
    List.filter
      (fun a ->
        a <> "--full" && a <> "--micro-only" && a <> "--kernel-only" && a <> "--closure-only")
      args
  in
  let mode = if full then Experiments.Exp_common.Full else Experiments.Exp_common.Quick in
  let seed = 2024 in
  if kernel_only then begin
    run_kernel_section ();
    exit 0
  end;
  if closure_only then begin
    run_closure_section ();
    exit 0
  end;
  if not micro_only then begin
    let selected =
      match names with
      | [] -> Experiments.Report.all
      | names ->
          List.map
            (fun n ->
              match Experiments.Report.find n with
              | Some e -> e
              | None ->
                  Printf.eprintf "unknown experiment '%s' (available: %s)\n" n
                    (String.concat ", "
                       (List.map (fun e -> e.Experiments.Report.name) Experiments.Report.all));
                  exit 2)
            names
    in
    List.iter
      (fun e ->
        print_string (e.Experiments.Report.run ~mode ~seed ~jobs);
        print_newline ())
      selected
  end;
  if names = [] then begin
    run_micro_benchmarks ();
    run_metrics_section ();
    run_kernel_section ();
    run_closure_section ()
  end
