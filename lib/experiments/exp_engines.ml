let name = "engines"

let description =
  "Engine deltas: compiled kernel vs interpreter, eager vs lazy count-engine closure"

(* Kernel-compiler delta table: the same agent-engine interaction loop
   driven by the interpreted transition vs the compiled kernel (memoized
   int-code table). The speedup column is the CI artifact that guards
   the compiler's reason to exist; the kernel columns make a slow compile
   or a skipped memoization visible next to it. *)
let kernel_section buf =
  Buffer.add_string buf "== Kernel compiler: compiled vs interpreted step throughput ==\n\n";
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
  Buffer.add_string buf (Stats.Table.render table ^ "\n\n")

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
let closure_section buf =
  Buffer.add_string buf "== Count engine: eager vs lazy closure (run_to_silence) ==\n\n";
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
  Buffer.add_string buf (Stats.Table.render table ^ "\n\n");
  List.iter
    (fun (label, ratio) ->
      Printf.bprintf buf "%s: eager/lazy wall-clock ratio %.2fx (%s)\n" label ratio
        (if ratio >= 1.0 then "lazy wins" else "eager wins"))
    (List.rev !deltas);
  Buffer.add_char buf '\n'

(* Both tables use their own fixed seeds and sizes, so the count columns
   are comparable across runs; mode, seed and jobs do not change them. *)
let run ~mode:_ ~seed:_ ~jobs:_ =
  let buf = Buffer.create 4096 in
  kernel_section buf;
  closure_section buf;
  Buffer.contents buf
