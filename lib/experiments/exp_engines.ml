let name = "engines"

let description =
  "Engine deltas: compiled kernel vs interpreter, eager vs lazy count-engine closure"

(* Both tables time their two modes the same way: each run is warmed up
   once and then timed [repeats] times, the two modes in alternation. A
   wall-clock cell is the median repeat, and a ratio is the median of the
   per-repeat ratios with their min–max next to it, so host noise shows
   in the table instead of passing for a result. *)
let repeats = 5

(* The warm-up results of [a] and [b], and [repeats] result pairs, [a]
   first in each. *)
let alternate a b =
  let warm_a = a () in
  let warm_b = b () in
  ((warm_a, warm_b), Array.init repeats (fun _ -> let x = a () in (x, b ())))

let timed run () =
  let t0 = Unix.gettimeofday () in
  run ();
  Unix.gettimeofday () -. t0

let median xs = (Stats.Summary.of_array xs).Stats.Summary.median

(* The median per-repeat ratio, and its rendering with the min–max. *)
let ratio rounds =
  let s = Stats.Summary.of_array (Array.map (fun (a, b) -> a /. b) rounds) in
  ( s.Stats.Summary.median,
    Printf.sprintf "%.2fx (%.2f-%.2f)" s.Stats.Summary.median s.Stats.Summary.min
      s.Stats.Summary.max )

(* Kernel-compiler delta table: the same agent-engine interaction loop
   driven by the interpreted transition vs the compiled kernel (memoized
   int-code table). The speedup column is the CI artifact that guards
   the compiler's reason to exist; the kernel columns make a slow compile
   or a skipped memoization visible next to it. A throughput cell is the
   median repeat. *)
let kernel_section buf =
  Buffer.add_string buf "== Kernel compiler: compiled vs interpreted step throughput ==\n\n";
  let steps = 4_000_000 in
  let mask = 0xFFFF in
  (* 65536 precomputed pairs, cycled *)
  let table =
    Stats.Table.create
      ~header:
        [
          "protocol"; "interp Msteps/s"; "compiled Msteps/s"; "step speedup (min-max)";
          "sim speedup (min-max)"; "states"; "table cells"; "compile ms";
        ]
  in
  (* per-repeat (interpreted, compiled) wall times *)
  let rounds interp compiled = snd (alternate (timed interp) (timed compiled)) in
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
    (* two loops rather than one generic one, so the compiled loop reads
       its int arrays without the polymorphic array access *)
    let step_interp () =
      let rng = Prng.create ~seed:44 in
      for i = 0 to steps - 1 do
        let k = i land mask in
        ignore (interp_tr rng da.(k) db.(k))
      done
    in
    let step_compiled () =
      let rng = Prng.create ~seed:44 in
      for i = 0 to steps - 1 do
        let k = i land mask in
        ignore (compiled_tr rng ka.(k) kb.(k))
      done
    in
    let step_rounds = rounds step_interp step_compiled in
    (* End-to-end: a full agent-engine run (pair sampling, monitor and
       event bookkeeping included), interpreted vs compiled codes. *)
    let sim_steps = steps / 4 in
    let sim protocol init () =
      Engine.Runner.run_while
        (Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng:(Prng.create ~seed:42) ())
        ~max_interactions:sim_steps
        (fun () -> true)
    in
    let sim_rounds =
      rounds (sim p init)
        (sim kernel.Ir.Kernel.compiled (Array.map (Ir.Kernel.encode kernel) init))
    in
    let mps times = float_of_int steps /. median times /. 1e6 in
    Stats.Table.add_row table
      [
        label;
        Printf.sprintf "%.2f" (mps (Array.map fst step_rounds));
        Printf.sprintf "%.2f" (mps (Array.map snd step_rounds));
        snd (ratio step_rounds);
        snd (ratio sim_rounds);
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
  Buffer.add_string buf (Stats.Table.render table ^ "\n\n")

(* Eager vs lazy closure delta table: the same run to provable silence
   through the two probing modes of the count engine ([init_probe]
   forced on / off). The dense-transition rows are the lazy kernel's
   reason to exist — the eager fold probes (and then walks) a quadratic
   productive adjacency the run never uses, until the density cap
   demotes it. The sparse small-n row is the honest negative control:
   there the eager drain is strictly better (silence is provable the
   moment W hits 0, while the lazy engine must tick through unknown
   pairs until every null is cached), so eager remains the default for
   small initial supports. The wall-clock cells are median repeats, and
   each row's verdict reads the median eager/lazy ratio. *)
let closure_section buf =
  Buffer.add_string buf "== Count engine: eager vs lazy closure (run to silence) ==\n\n";
  let table =
    Stats.Table.create
      ~header:
        [
          "scenario"; "mode"; "silent"; "events"; "interactions"; "pairs probed";
          "cache cells"; "closure"; "wall s"; "events/s";
        ]
  in
  let deltas = ref [] in
  let bench : 'a. label:string -> protocol:'a Engine.Protocol.t -> init:'a array -> unit =
   fun ~label ~protocol ~init ->
    let n = protocol.Engine.Protocol.n in
    let run eager () =
      let rng = Prng.create ~seed:2024 in
      let cs = Engine.Count_sim.make ~init_probe:eager ~protocol ~init:(Array.copy init) ~rng () in
      let exec = Engine.Exec.of_count_sim cs in
      let silent () = Engine.Exec.silent exec = Some true in
      let t0 = Unix.gettimeofday () in
      Engine.Runner.run_while exec ~max_interactions:(100 * n * n) (fun () -> not (silent ()));
      let wall = Unix.gettimeofday () -. t0 in
      (* every run of a mode is the same run: the counts come from its warm-up *)
      let counts =
        [
          string_of_bool (silent ());
          string_of_int (Engine.Exec.events exec);
          string_of_int (Engine.Exec.interactions exec);
          string_of_int (Engine.Count_sim.pairs_probed cs);
          string_of_int (Engine.Count_sim.pairs_cached cs);
          string_of_int (Engine.Count_sim.closure_size cs);
        ]
      in
      (counts, Engine.Exec.events exec, wall)
    in
    let (eager, lazy_), rounds = alternate (run true) (run false) in
    let walls = Array.map (fun ((_, _, e), (_, _, l)) -> (e, l)) rounds in
    List.iter
      (fun (mode, (counts, events, _), wall) ->
        Stats.Table.add_row table
          ((label :: mode :: counts)
          @ [ Printf.sprintf "%.3f" wall; Printf.sprintf "%.0f" (float_of_int events /. wall) ]))
      [
        ("eager", eager, median (Array.map fst walls));
        ("lazy", lazy_, median (Array.map snd walls));
      ];
    deltas := (label, ratio walls) :: !deltas
  in
  (* dense: Optimal-Silent's counter states almost all interact *)
  List.iter
    (fun n ->
      let params = Core.Params.optimal_silent n in
      let protocol = Core.Optimal_silent.protocol ~params ~n () in
      let init = Core.Scenarios.optimal_uniform (Prng.create ~seed:7) ~params ~n in
      bench ~label:(Printf.sprintf "optimal-silent n=%d (dense)" n) ~protocol ~init)
    [ 64; 128 ];
  (* sparse negative control: only the rank diagonal is productive *)
  let n = 64 in
  let protocol = Core.Silent_n_state.protocol ~n in
  let init = Core.Scenarios.silent_uniform (Prng.create ~seed:7) ~n in
  bench ~label:(Printf.sprintf "silent-n-state n=%d (sparse)" n) ~protocol ~init;
  Buffer.add_string buf (Stats.Table.render table ^ "\n\n");
  List.iter
    (fun (label, (median, shown)) ->
      Printf.bprintf buf "%s: eager/lazy wall-clock ratio %s (%s)\n" label shown
        (if median >= 1.0 then "lazy wins" else "eager wins"))
    (List.rev !deltas);
  Buffer.add_char buf '\n'

(* Both tables use their own fixed seeds and sizes, so the count columns
   are comparable across runs; mode, seed and jobs do not change them. *)
let run ~mode:_ ~seed:_ ~jobs:_ =
  let buf = Buffer.create 4096 in
  kernel_section buf;
  closure_section buf;
  Buffer.contents buf
