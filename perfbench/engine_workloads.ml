(* The three engine workloads: Optimal-Silent-SSR run to stability on the
   agent engine under both kernels (agent-table1), and on the count engine
   from a dense start (count-dense) and from the correct configuration at
   large n (count-window). One operation is one seeded trial: one
   Runner.run_to_stability call, or on agent-table1 one per kernel on the
   same seed (a median over a mix of two kernels' times would fall in the
   gap between them). Executors are built before the clock starts. *)

module E = Engine
module OS = Core.Optimal_silent

type kernel = Interp | Compiled

let kernel_name = function Interp -> "interp" | Compiled -> "compiled"

(* Trials whose exact counters are snapshotted and re-checked. *)
let snapshot_trials = 1

(* Per-operation record, kept for the traced phase's layer metrics. *)
type op = {
  kernel : kernel option;  (** agent-table1 only *)
  wall_s : float;
  ref_s : float;  (** [wall_s] in reference seconds (Calib) *)
  outcome : E.Runner.outcome;
  stats : (string * float) list;  (** engine counters, kernel.* excluded *)
  memo_hits : int;
  dynamic_steps : int;
  advance_s : float;  (** traced phase only: time inside Exec.advance *)
  advance_calls : int;
}

let engine_stats exec =
  List.filter
    (fun (k, _) -> not (String.length k >= 7 && String.sub k 0 7 = "kernel."))
    (E.Exec.stats exec)

let run_op ~tracing ~n ?kernel ?ir exec =
  let memo0, dyn0 =
    match ir with Some k -> (!(k.Ir.Kernel.memo_hits), !(k.Ir.Kernel.dynamic_steps)) | None -> (0, 0)
  in
  let acc = Trace.acc () in
  let exec = if tracing then Trace.timed_exec acc exec else exec in
  let probe_s = Calib.probe () in
  let t0 = Trace.now () in
  let outcome =
    Trace.span "runner.run_to_stability" (fun () ->
        let o =
          E.Runner.run_to_stability ~task:E.Runner.Ranking
            ~max_interactions:(E.Runner.default_horizon ~n ~expected_time:(40.0 *. float_of_int n))
            ~confirm_interactions:(E.Runner.default_confirm ~n)
            exec
        in
        if tracing then
          Trace.aggregate "exec.advance" ~start:t0 ~total_s:(Trace.acc_s acc) ~calls:acc.Trace.calls;
        o)
  in
  let wall_s = Trace.now () -. t0 in
  let memo1, dyn1 =
    match ir with Some k -> (!(k.Ir.Kernel.memo_hits), !(k.Ir.Kernel.dynamic_steps)) | None -> (0, 0)
  in
  {
    kernel;
    wall_s;
    ref_s = Calib.scale ~probe_s wall_s;
    outcome;
    stats = engine_stats exec;
    memo_hits = memo1 - memo0;
    dynamic_steps = dyn1 - dyn0;
    advance_s = Trace.acc_s acc;
    advance_calls = acc.Trace.calls;
  }

let exact_counters op =
  let o = op.outcome in
  [
    ("converged", if o.E.Runner.converged then 1.0 else 0.0);
    ("convergence_interactions", float_of_int o.E.Runner.convergence_interactions);
    ("total_interactions", float_of_int o.E.Runner.total_interactions);
    ("violations", float_of_int o.E.Runner.violations);
    ("memo_hits", float_of_int op.memo_hits);
    ("dynamic_steps", float_of_int op.dynamic_steps);
  ]
  @ op.stats

let prefixed p = List.map (fun (k, v) -> (p ^ "." ^ k, v))

(* A workload is a set-up, made once before the first trial and
   [setups_per_trial] times before every trial (outside its clock), plus a
   function running the operations of trial [i] (one per kernel on
   agent-table1) and checking them. *)
type workload = {
  n : int;
  setup : seed:int -> unit;  (** one set-up *)
  setups_per_trial : int;
  setup_metric : string * int;
      (** the layer metric one set-up reports as, and how many of its units
          one set-up performs *)
  trial : tracing:bool -> Run.tally -> rng:Prng.t -> int -> op list;
  static_counters : unit -> (string * float) list;  (** exact facts of the set-up *)
}

let optimal n =
  let params = Core.Params.optimal_silent n in
  (params, OS.protocol ~params ~n ())

let agent_table1 ~n =
  let params, protocol = optimal n in
  let kernel = ref None in
  (* One set-up is one compile; the last compile's kernel is kept. *)
  let setup ~seed:_ =
    Trace.span "ir.compile" (fun () -> kernel := Some (Ir.Kernel.compile (OS.enumerable ~params ~n ())))
  in
  let trial ~tracing tally ~rng i =
    let k = Option.get !kernel in
    let init = Core.Scenarios.optimal_uniform (Prng.split rng) ~params ~n in
    let run_rng = Prng.split rng in
    let run kind =
      let exec =
        Trace.span "exec.make" (fun () ->
            match kind with
            | Interp -> E.Exec.of_sim (E.Sim.make ~protocol ~init ~rng:(Prng.copy run_rng))
            | Compiled -> Ir.Kernel.exec ~kind:E.Exec.Agent k ~init ~rng:(Prng.copy run_rng))
      in
      let op =
        match kind with
        | Interp -> run_op ~tracing ~n ~kernel:kind exec
        | Compiled -> run_op ~tracing ~n ~kernel:kind ~ir:k exec
      in
      Run.check tally
        (op.outcome.E.Runner.converged && E.Exec.ranking_correct exec)
        (lazy (Printf.sprintf "trial %d (%s): no correct ranking" i (kernel_name kind)));
      op
    in
    (* Alternate which kernel runs first so neither always meets a warm
       or a cold cache. *)
    let order = if i mod 2 = 0 then [ Interp; Compiled ] else [ Compiled; Interp ] in
    let ops = List.map run order in
    (match ops with
    | [ a; b ] ->
        Run.check tally
          (a.outcome = b.outcome)
          (lazy (Printf.sprintf "trial %d: interp and compiled outcomes differ" i))
    | _ -> ());
    List.sort (fun a b -> compare a.kernel b.kernel) ops
  in
  (* The kernel's shape; compile_s is a time and memo_hits and
     dynamic_steps accumulate over the run, so those stay out. *)
  let static_counters () =
    List.filter
      (fun (k, _) -> not (List.mem k [ "kernel.compile_s"; "kernel.memo_hits"; "kernel.dynamic_steps" ]))
      (Ir.Kernel.stats (Option.get !kernel))
  in
  { n; setup; setups_per_trial = 1; setup_metric = ("ir.compile_s", 1); trial; static_counters }

(* Count engine: the executor, built per trial before its clock starts, is
   the start configuration plus Count_sim.make with its init drain. One
   set-up builds (and drops) the executors of the seed's first [batch]
   trials, so that it lasts well over a millisecond even at small n. *)
let count_workload ~n ~batch ~setups_per_trial ~init ~check =
  let _, protocol = optimal n in
  let make_exec rng =
    Trace.span "count.init" (fun () ->
        let init = init (Prng.split rng) in
        E.Exec.of_count_sim (E.Count_sim.make ~protocol ~init ~rng:(Prng.split rng) ()))
  in
  let setup ~seed =
    let root = Prng.create ~seed in
    for _ = 1 to batch do
      ignore (make_exec (Prng.split root) : _ E.Exec.t)
    done
  in
  let trial ~tracing tally ~rng i =
    let exec = make_exec rng in
    let op = run_op ~tracing ~n exec in
    Run.check tally (check exec op.outcome) (lazy (Printf.sprintf "trial %d: check failed" i));
    [ op ]
  in
  {
    n;
    setup;
    setups_per_trial;
    setup_metric = ("count.init_s", batch);
    trial;
    static_counters = (fun () -> []);
  }

let count_dense ~n =
  let params, _ = optimal n in
  count_workload ~n ~batch:16 ~setups_per_trial:1
    ~init:(fun rng -> Core.Scenarios.optimal_uniform rng ~params ~n)
    ~check:(fun exec o -> o.E.Runner.converged && E.Exec.ranking_correct exec)

let count_window ~n =
  count_workload ~n ~batch:2 ~setups_per_trial:2
    ~init:(fun _ -> Core.Scenarios.optimal_correct ~n)
    ~check:(fun exec o ->
      o.E.Runner.converged && o.E.Runner.convergence_interactions = 0 && E.Exec.events exec = 0
      && o.E.Runner.total_interactions = E.Runner.default_confirm ~n
      && E.Exec.ranking_correct exec)

(* Runs trials from the seed's first one until [seconds] have passed and
   returns each trial's untraced and traced operations. A full major
   collection before each run keeps one trial's garbage out of the next
   one's heap peak. Untraced, a trial runs once and its traced list is
   empty. With [trace], every trial runs twice from the same seed, once
   untraced and once traced (the order alternating), and the two runs must
   agree: the tracing overhead is then read from pairs of identical runs
   made seconds apart, which a drift in the machine's speed over the run
   does not bias. [before_trial] runs first, outside the trial's clock. *)
let phase w ~trace ~seed ~seconds ~before_trial tally =
  let root = Prng.create ~seed in
  let trials = ref [] in
  Run.for_seconds seconds (fun i ->
      before_trial ();
      let rng = Prng.split root in
      let run ~tracing =
        Gc.full_major ();
        Trace.set_enabled tracing;
        let ops = Trace.span "trial" (fun () -> w.trial ~tracing tally ~rng:(Prng.copy rng) i) in
        Trace.set_enabled false;
        ops
      in
      let pair =
        if not trace then (run ~tracing:false, [])
        else if i mod 2 = 0 then
          let u = run ~tracing:false in
          (u, run ~tracing:true)
        else
          let t = run ~tracing:true in
          (run ~tracing:false, t)
      in
      (match pair with
      | u, (_ :: _ as t) ->
          Run.check tally
            (List.map (fun op -> op.outcome) u = List.map (fun op -> op.outcome) t)
            (lazy (Printf.sprintf "trial %d: traced and untraced outcomes differ" i))
      | _ -> ());
      trials := pair :: !trials);
  List.rev !trials

let ptime ~n ops =
  List.fold_left (fun acc op -> acc +. float_of_int op.outcome.E.Runner.total_interactions) 0.0 ops
  /. float_of_int n

let sum_ops f ops = List.fold_left (fun acc op -> acc +. f op) 0.0 ops

(* One throughput sample per trial, per second of [time]. *)
let rates ~n ~time trials = List.map (fun ops -> ptime ~n ops /. sum_ops time ops) trials
let stat_sum name ops = sum_ops (fun op -> Run.stat name op.stats) ops
let safe_div a b = if b = 0.0 then 0.0 else a /. b

(* The per-layer metrics of the traced operations, and the tracing
   overhead: the median over trials of traced wall time over the untraced
   wall time of the same trial, less one. *)
let layer_metrics pairs =
  let ops = List.concat_map snd pairs in
  let count = float_of_int (List.length ops) in
  let interactions = stat_sum "interactions" ops in
  let events = stat_sum "events" ops in
  let advance_s = sum_ops (fun op -> op.advance_s) ops in
  let wall = sum_ops (fun op -> op.wall_s) ops in
  let time_of = sum_ops (fun op -> op.ref_s) in
  let overhead = Run.median (List.map (fun (u, t) -> (time_of t /. time_of u) -. 1.0) pairs) in
  let compiled = List.filter (fun op -> op.kernel = Some Compiled) ops in
  let memo = sum_ops (fun op -> float_of_int op.memo_hits) compiled in
  let dyn = sum_ops (fun op -> float_of_int op.dynamic_steps) compiled in
  let agent = List.exists (fun op -> op.kernel <> None) ops in
  let per_op name = stat_sum name ops /. count in
  [
    ("ir.memo_hit_ratio", safe_div memo (memo +. dyn), "ratio");
    ("monitor.updates_per_interaction", safe_div (stat_sum "monitor_updates" ops) interactions, "ratio");
    ("runner.self_s", (wall -. advance_s) /. count, "s/op");
    ("runner.advance_calls", sum_ops (fun op -> float_of_int op.advance_calls) ops /. count, "count/op");
  ]
  @ (if agent then [ ("sim.step_ns", safe_div (advance_s *. 1e9) interactions, "ns") ]
     else
       [
         ("exec.advance_ns_per_interaction", safe_div (advance_s *. 1e9) interactions, "ns");
         ("count.advance_ns_per_event", safe_div (advance_s *. 1e9) events, "ns");
       ])
  @ [
    ("count.events", per_op "events", "count/op");
    ("count.pairs_probed", per_op "pairs_probed", "count/op");
    ("count.pairs_cached", per_op "pairs_cached", "count/op");
    ("count.null_skipped", per_op "null_skipped", "count/op");
    ("count.closure_size", per_op "closure_size", "count/op");
    ("count.productive_pairs", per_op "productive_pairs", "count/op");
    ("count.useful_probe_ratio", safe_div events (stat_sum "pairs_probed" ops), "ratio");
    ("count.skip_ratio", safe_div (stat_sum "null_skipped" ops) interactions, "ratio");
    ("trace.overhead_share", overhead, "ratio");
  ]

let run (w : workload) ~seed ~seconds ~trace =
  let tally = Run.tally () in
  let n = w.n in
  (* Each set-up after a full major collection, so that none pays for an
     earlier one's garbage. The set-ups are spread over the run, like the
     trials, so that their median sees the same stretch of machine time. *)
  let setups = ref [] and setups_wall = ref [] in
  let timed_setup () =
    Gc.full_major ();
    Trace.set_enabled trace;
    let probe_s = Calib.probe () in
    let t0 = Trace.now () in
    w.setup ~seed;
    let wall = Trace.now () -. t0 in
    setups := Calib.scale ~probe_s wall :: !setups;
    setups_wall := wall :: !setups_wall;
    Trace.set_enabled false
  in
  timed_setup ();
  let before_trial () =
    for _ = 1 to w.setups_per_trial do
      timed_setup ()
    done
  in
  let pairs = phase w ~trace ~seed ~seconds ~before_trial tally in
  let setup_s = List.rev !setups in
  let heap_peak_mb = Run.heap_peak_mb () in
  let trials = List.map fst pairs in
  let ops = List.concat trials in
  let kernel_report k =
    let times = List.filter_map (fun op -> if op.kernel = Some k then Some op.wall_s else None) ops in
    if times = [] then [] else Run.latency ("trial_s." ^ kernel_name k) times
  in
  let timed_s = sum_ops (fun op -> op.wall_s) ops in
  (* Exact counters: the seed's first trials, re-run once to show that a
     fixed seed reproduces them bit for bit. *)
  let snapshot trials =
    List.concat
      (List.mapi
         (fun i ops ->
           List.concat_map
             (fun op ->
               let k = match op.kernel with Some k -> "." ^ kernel_name k | None -> "" in
               prefixed (Printf.sprintf "trial%d%s" i k) (exact_counters op))
             ops)
         (List.filteri (fun i _ -> i < snapshot_trials) trials))
  in
  let counters = snapshot trials in
  let root = Prng.create ~seed in
  let rerun =
    List.init (min snapshot_trials (List.length trials)) (fun i ->
        let rng = Prng.split root in
        w.trial ~tracing:false tally ~rng i)
  in
  Run.check_repro tally ~what:"engine" counters (snapshot rerun);
  let counters = counters @ w.static_counters () in
  let layer =
    if not trace then []
    else
      let name, units = w.setup_metric in
      (name, Run.median setup_s /. float_of_int units, "s") :: layer_metrics pairs
  in
  {
    Run.n;
    attempted = tally.Run.checked;
    failed = tally.Run.bad;
    failures = tally.Run.messages;
    setup_s;
    op_s = List.map (sum_ops (fun op -> op.ref_s)) trials;
    timed_s;
    rates = rates ~n ~time:(fun op -> op.ref_s) trials;
    heap_peak_mb;
    counters;
    report =
      [
        ("wall.setup_s", Run.median !setups_wall, "s");
        ("wall.ptime_per_s", Run.median (rates ~n ~time:(fun op -> op.wall_s) trials), "ptime/s");
        ("wall.op_s.p50", Run.median (List.map (sum_ops (fun op -> op.wall_s)) trials), "s");
        ("probe_s.p50", Run.median (Calib.all ()), "s");
      ]
      @ kernel_report Interp @ kernel_report Compiled;
    layer;
  }
