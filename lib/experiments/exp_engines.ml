let name = "engines"

let description =
  "Engine deltas: compiled kernel vs interpreter, eager vs lazy count-engine closure"

(* Both tables report work, not time: every cell is a count of a fixed-seed
   run or a fact of the compiled kernel, so two runs print the same bytes.
   Wall-clock comparisons of the same choices are perfbench's
   (transition.interp_ns and transition.compiled_ns, agent-table1's
   trial_s.interp.p50 and trial_s.compiled.p50). *)

(* Kernel-compiler table: the work the compiled kernel removes from the
   agent engine's interaction. The interpreter evaluates the source
   transition once per interaction; the compiled kernel evaluates it only
   for a pair the memo table does not serve (a dynamic step), and then
   pays two encodes on top. One fixed-seed agent-engine run per kernel
   counts those steps. A tableless kernel (the memo table would exceed its
   budget) is the negative control: every interaction is dynamic. *)
let kernel_section buf =
  let interactions = 1_000_000 in
  Printf.bprintf buf
    "== Kernel compiler: source transitions per interaction, compiled vs interpreted ==\n\n\
     (/i: per interaction of one %d-interaction agent-engine run, seed 42)\n\n"
    interactions;
  let table =
    Stats.Table.create
      ~header:
        [
          "protocol"; "states"; "table cells"; "static pairs"; "dynamic pairs";
          "interp transitions/i"; "compiled transitions/i"; "compiled encodes/i";
        ]
  in
  let row : 'a. label:string -> 'a Engine.Enumerable.t -> init:'a array -> unit =
   fun ~label e ~init ->
    let kernel = Ir.Kernel.compile e in
    let exec = Ir.Kernel.exec ~kind:Engine.Exec.Agent kernel ~init ~rng:(Prng.create ~seed:42) in
    Engine.Runner.run_while exec ~max_interactions:interactions (fun () -> true);
    let stat k = int_of_float (List.assoc ("kernel." ^ k) (Ir.Kernel.stats kernel)) in
    let per_interaction x = Printf.sprintf "%.2f" (float_of_int x /. float_of_int interactions) in
    Stats.Table.add_row table
      [
        label;
        string_of_int (stat "states");
        string_of_int (stat "table_cells");
        string_of_int (stat "static_pairs");
        string_of_int (stat "dynamic_pairs");
        "1.00";
        per_interaction (stat "dynamic_steps");
        per_interaction (2 * stat "dynamic_steps");
      ]
  in
  let n = 256 in
  row ~label:(Printf.sprintf "silent-n-state n=%d" n)
    (Core.Silent_n_state.enumerable ~n)
    ~init:(Core.Scenarios.silent_worst_case ~n);
  List.iter
    (fun n ->
      let params = Core.Params.optimal_silent n in
      row
        ~label:(Printf.sprintf "optimal-silent n=%d" n)
        (Core.Optimal_silent.enumerable ~params ~n ())
        ~init:(Core.Scenarios.optimal_uniform (Prng.create ~seed:41) ~params ~n))
    [ 64; 256 ];
  Buffer.add_string buf (Stats.Table.render table ^ "\n\n")

(* Eager vs lazy closure table: the same run to provable silence through
   the two probing modes of the count engine ([init_probe] forced on /
   off). The dense-transition rows are the lazy kernel's reason to exist:
   the eager fold probes (and then walks) a quadratic productive adjacency
   the run never uses, until the density cap demotes it. The sparse
   small-n row is the honest negative control: there the eager drain
   records only the productive diagonal and proves silence the moment W
   hits 0, while the lazy engine must tick through unknown pairs until
   every null one is cached, so eager remains the default for small
   initial supports. Each row's verdict reads the eager/lazy ratio of
   cache cells, the recorded pairs the engine stores and walks per event. *)
let closure_section buf =
  Buffer.add_string buf "== Count engine: eager vs lazy closure (run to silence) ==\n\n";
  let table =
    Stats.Table.create
      ~header:
        [
          "scenario"; "mode"; "silent"; "events"; "interactions"; "pairs probed"; "cache cells";
          "closure";
        ]
  in
  let verdicts = Buffer.create 256 in
  let row : 'a. label:string -> protocol:'a Engine.Protocol.t -> init:'a array -> unit =
   fun ~label ~protocol ~init ->
    let n = protocol.Engine.Protocol.n in
    let run mode eager =
      let rng = Prng.create ~seed:2024 in
      let cs = Engine.Count_sim.make ~init_probe:eager ~protocol ~init:(Array.copy init) ~rng () in
      let exec = Engine.Exec.of_count_sim cs in
      let silent () = Engine.Exec.silent exec = Some true in
      Engine.Runner.run_while exec ~max_interactions:(100 * n * n) (fun () -> not (silent ()));
      Stats.Table.add_row table
        [
          label;
          mode;
          string_of_bool (silent ());
          string_of_int (Engine.Exec.events exec);
          string_of_int (Engine.Exec.interactions exec);
          string_of_int (Engine.Count_sim.pairs_probed cs);
          string_of_int (Engine.Count_sim.pairs_cached cs);
          string_of_int (Engine.Count_sim.closure_size cs);
        ];
      Engine.Count_sim.pairs_cached cs
    in
    let eager = run "eager" true in
    let lazy_ = run "lazy" false in
    let ratio = float_of_int eager /. float_of_int lazy_ in
    Printf.bprintf verdicts "%s: eager/lazy cache-cells ratio %.3gx (%s)\n" label ratio
      (if ratio >= 1.0 then "lazy wins" else "eager wins")
  in
  (* dense: Optimal-Silent's counter states almost all interact *)
  List.iter
    (fun n ->
      let params = Core.Params.optimal_silent n in
      let protocol = Core.Optimal_silent.protocol ~params ~n () in
      let init = Core.Scenarios.optimal_uniform (Prng.create ~seed:7) ~params ~n in
      row ~label:(Printf.sprintf "optimal-silent n=%d (dense)" n) ~protocol ~init)
    [ 64; 128 ];
  (* sparse negative control: only the rank diagonal is productive *)
  let n = 64 in
  let protocol = Core.Silent_n_state.protocol ~n in
  let init = Core.Scenarios.silent_uniform (Prng.create ~seed:7) ~n in
  row ~label:(Printf.sprintf "silent-n-state n=%d (sparse)" n) ~protocol ~init;
  Buffer.add_string buf (Stats.Table.render table ^ "\n\n");
  Buffer.add_buffer buf verdicts;
  Buffer.add_char buf '\n'

(* Both tables use their own fixed seeds and sizes, so mode, seed and jobs
   do not change the report. *)
let run ~mode:_ ~seed:_ ~jobs:_ =
  let buf = Buffer.create 4096 in
  kernel_section buf;
  closure_section buf;
  Buffer.contents buf
