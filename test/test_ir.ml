(* Protocol IR + kernel compiler validation.

   The compiled kernel must be observationally indistinguishable from the
   interpreter. The contract has two strengths, decided per protocol by
   the memoize pass:

   - exact kernels (every static output is its own declared
     representative): trajectories are bit-identical under the same seed
     on both engines;
   - quotient kernels (outputs are normalized on encode): per-step
     observables (interactions, events, correctness monitors) are still
     identical on the agent engine — normalize is a bisimulation quotient
     — and snapshots agree modulo normalize; the count engine interns
     different representatives, so only exact kernels are compared there.

   Per-stage properties: pack/unpack round-trips over the whole declared
   space, derivation's dead-code elimination never removes a code any
   one-step reachable state needs, the memo table agrees pointwise with
   direct interpretation, and Ir.pp dumps match the golden files. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let all_entries () =
  List.map
    (fun (e : Analysis.Registry.entry) -> (e.Analysis.Registry.key, e.Analysis.Registry.build ~n:4))
    Analysis.Registry.entries

(* --- pack / unpack round-trips ------------------------------------- *)

let test_roundtrip_all_entries () =
  List.iter
    (fun (key, Analysis.Registry.Any e) ->
      let ir = Ir.Passes.pipeline e in
      let p = e.Engine.Enumerable.protocol in
      let m = Ir.size ir in
      check_int (key ^ ": live codes = declared states")
        (Analysis.Statespace.size ir.Ir.space) m;
      for c = 0 to m - 1 do
        let st = Ir.decode ir c in
        (match Ir.encode_opt ir st with
        | Some c' -> check_int (Printf.sprintf "%s: encode(decode %d)" key c) c c'
        | None -> Alcotest.failf "%s: decode %d escapes on re-encode" key c);
        check_bool
          (Printf.sprintf "%s: decode %d is a declared representative" key c)
          true
          (p.Engine.Protocol.equal st (e.Engine.Enumerable.normalize st))
      done;
      (* every declared state encodes, and encoding is injective *)
      let seen = Hashtbl.create (2 * m) in
      List.iter
        (fun st ->
          let c = Ir.encode ir st in
          check_bool (key ^ ": codes are unique per state") false (Hashtbl.mem seen c);
          Hashtbl.add seen c ())
        e.Engine.Enumerable.states)
    (all_entries ())

(* --- DSE never removes a reachable code ---------------------------- *)

(* One-step closure: every synthetic-coin outcome of every declared
   ordered pair must still have a live code after dead-code elimination.
   (Deeper reachability follows by induction; the closure analysis has
   already proven the declared space transition-closed.) *)
let test_dse_keeps_reachable () =
  List.iter
    (fun (key, Analysis.Registry.Any e) ->
      let ir = Ir.of_enumerable e in
      let p = e.Engine.Enumerable.protocol in
      let states = Array.of_list e.Engine.Enumerable.states in
      Array.iter
        (fun a ->
          Array.iter
            (fun b ->
              List.iter
                (fun { Analysis.Coins.value = a', b'; _ } ->
                  List.iter
                    (fun out ->
                      match Ir.encode_opt ir (e.Engine.Enumerable.normalize out) with
                      | Some _ -> ()
                      | None ->
                          Alcotest.failf "%s: reachable state %s lost its code" key
                            (Format.asprintf "%a" p.Engine.Protocol.pp out))
                    [ a'; b' ])
                (Analysis.Coins.enumerate ~max_draws:e.Engine.Enumerable.max_draws (fun rng ->
                     p.Engine.Protocol.transition rng a b)))
            states)
        states)
    (all_entries ())

(* --- memo table agrees with direct interpretation ------------------ *)

let test_memo_matches_direct () =
  List.iter
    (fun (key, Analysis.Registry.Any e) ->
      let ir = Ir.Passes.pipeline e in
      match ir.Ir.table with
      | None -> () (* memoization skipped: nothing to compare *)
      | Some { Ir.out_i; out_j = _ } ->
          let plain = Ir.Kernel.of_ir (Ir.of_enumerable e) in
          let memo = Ir.Kernel.of_ir ir in
          let m = Ir.size ir in
          for ci = 0 to m - 1 do
            for cj = 0 to m - 1 do
              if out_i.((ci * m) + cj) >= 0 then begin
                (* static pair: both kernels must agree, and neither may
                   consult the generator (scripted [] would record it) *)
                let rng = Prng.scripted [] in
                let di, dj = Ir.Kernel.step plain rng ci cj in
                let mi, mj = Ir.Kernel.step memo rng ci cj in
                check_int (Printf.sprintf "%s: table (%d,%d) initiator" key ci cj) di mi;
                check_int (Printf.sprintf "%s: table (%d,%d) responder" key ci cj) dj mj;
                check_int (key ^ ": static pair drew no randomness") 0
                  (List.length (Prng.script_trace rng))
              end
            done
          done;
          check_bool (key ^ ": plain kernel counted dynamic steps") true
            (!(plain.Ir.Kernel.dynamic_steps) > 0);
          check_bool (key ^ ": memo kernel counted hits") true
            (!(memo.Ir.Kernel.memo_hits) > 0 || ir.Ir.static_pairs = 0))
    (all_entries ())

(* --- differential: per-step observables on the agent engine -------- *)

let random_init ~rng (e : _ Engine.Enumerable.t) =
  let states = Array.of_list e.Engine.Enumerable.states in
  Array.init e.Engine.Enumerable.protocol.Engine.Protocol.n (fun _ ->
      states.(Prng.int rng (Array.length states)))

let observables exec =
  ( Engine.Exec.interactions exec,
    Engine.Exec.events exec,
    Engine.Exec.leader_count exec,
    Engine.Exec.ranked_agents exec,
    Engine.Exec.ranking_correct exec,
    Engine.Exec.leader_correct exec,
    Engine.Exec.silent exec )

let obs_t =
  Alcotest.(pair (pair (pair int int) (pair int int)) (pair (pair bool bool) (option bool)))

let flat (a, b, c, d, e, f, g) = (((a, b), (c, d)), ((e, f), g))

let compare_trajectories ~key ~kind ~seed ~steps (Analysis.Registry.Any e) =
  let p = e.Engine.Enumerable.protocol in
  let kernel = Ir.Kernel.compile e in
  let init = random_init ~rng:(Prng.create ~seed:(seed + 7)) e in
  let interp = Engine.Exec.make ~kind ~protocol:p ~init ~rng:(Prng.create ~seed) () in
  let compiled = Ir.Kernel.exec ~kind kernel ~init ~rng:(Prng.create ~seed) in
  let exact = Ir.Kernel.exact kernel in
  for i = 1 to steps do
    let ia = Engine.Exec.advance interp ~until:i in
    let ca = Engine.Exec.advance compiled ~until:i in
    check_bool (Printf.sprintf "%s@%d: advance agrees" key i) ia ca;
    Alcotest.check obs_t
      (Printf.sprintf "%s@%d: observables agree" key i)
      (flat (observables interp))
      (flat (observables compiled));
    let si = Engine.Exec.snapshot interp and sc = Engine.Exec.snapshot compiled in
    Array.iteri
      (fun a st ->
        check_bool
          (Printf.sprintf "%s@%d: agent %d state agrees (mod normalize)" key i a)
          true
          (p.Engine.Protocol.equal (e.Engine.Enumerable.normalize st) sc.(a));
        if exact then
          check_bool
            (Printf.sprintf "%s@%d: agent %d state bit-identical" key i a)
            true
            (p.Engine.Protocol.equal st sc.(a)))
      si
  done

let test_agent_trajectories () =
  List.iter
    (fun (key, any) -> compare_trajectories ~key ~kind:Engine.Exec.Agent ~seed:9100 ~steps:400 any)
    (all_entries ())

let test_count_trajectories () =
  List.iter
    (fun (key, (Analysis.Registry.Any e as any)) ->
      if e.Engine.Enumerable.protocol.Engine.Protocol.deterministic then begin
        let kernel = Ir.Kernel.compile e in
        (* quotient kernels intern different representatives than the raw
           interpreter, so the count engine's rng mapping diverges: the
           bitwise comparison is only sound for exact kernels *)
        if Ir.Kernel.exact kernel then
          compare_trajectories ~key ~kind:Engine.Exec.Count ~seed:9200 ~steps:400 any
      end)
    (all_entries ())

(* --- differential: whole Runner outcomes under QCheck seeds -------- *)

let runner_outcome ~exec ~n =
  let o =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
      ~max_interactions:(200 * n * n)
      ~confirm_interactions:(Engine.Runner.default_confirm ~n)
      exec
  in
  ( o.Engine.Runner.converged,
    o.Engine.Runner.convergence_interactions,
    o.Engine.Runner.total_interactions,
    o.Engine.Runner.violations )

let qcheck_runner_differential =
  QCheck.Test.make ~name:"Runner outcomes agree compiled-vs-interp (agent engine)" ~count:25
    QCheck.(pair small_nat (int_bound 2))
    (fun (seed_off, pick) ->
      let key, (Analysis.Registry.Any e) =
        List.nth (all_entries ()) (pick * 2)
        (* silent_n_state, optimal_silent, sublinear: a silent determinist,
           a quotient determinist and a randomized protocol *)
      in
      let p = e.Engine.Enumerable.protocol in
      let n = p.Engine.Protocol.n in
      let seed = 9300 + seed_off in
      let kernel = Ir.Kernel.compile e in
      let init = random_init ~rng:(Prng.create ~seed:(seed + 13)) e in
      let interp =
        Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol:p ~init ~rng:(Prng.create ~seed) ()
      in
      let compiled = Ir.Kernel.exec ~kind:Engine.Exec.Agent kernel ~init ~rng:(Prng.create ~seed) in
      let oi = runner_outcome ~exec:interp ~n and oc = runner_outcome ~exec:compiled ~n in
      if oi <> oc then
        QCheck.Test.fail_reportf "%s: interp %s <> compiled %s" key
          (let a, b, c, d = oi in Printf.sprintf "(%b,%d,%d,%d)" a b c d)
          (let a, b, c, d = oc in Printf.sprintf "(%b,%d,%d,%d)" a b c d)
      else true)

(* --- kernel stats through Exec.stats ------------------------------- *)

let assoc name stats =
  match List.assoc_opt name stats with
  | Some v -> v
  | None -> Alcotest.failf "stat %s missing from %s" name (String.concat "," (List.map fst stats))

let test_kernel_stats () =
  let n = 6 in
  let e = Core.Silent_n_state.enumerable ~n in
  let kernel = Ir.Kernel.compile e in
  let init = Core.Scenarios.silent_worst_case ~n in
  let exec = Ir.Kernel.exec ~kind:Engine.Exec.Agent kernel ~init ~rng:(Prng.create ~seed:11) in
  let before = Engine.Exec.stats exec in
  check_int "kernel.states" n (int_of_float (assoc "kernel.states" before));
  check_int "kernel.table_cells" (n * n) (int_of_float (assoc "kernel.table_cells" before));
  check_int "kernel.dead_codes" 0 (int_of_float (assoc "kernel.dead_codes" before));
  check_int "kernel.exact" 1 (int_of_float (assoc "kernel.exact" before));
  check_bool "kernel.compile_s is sane" true
    (assoc "kernel.compile_s" before >= 0.0 && assoc "kernel.compile_s" before < 60.0);
  check_int "no steps yet" 0 (int_of_float (assoc "kernel.memo_hits" before));
  for i = 1 to 100 do
    ignore (Engine.Exec.advance exec ~until:i)
  done;
  let after = Engine.Exec.stats exec in
  check_bool "memo hits counted" true (assoc "kernel.memo_hits" after > 0.0);
  check_int "fully static protocol: no dynamic steps" 0
    (int_of_float (assoc "kernel.dynamic_steps" after));
  (* engine counters still come through the same list *)
  check_bool "engine interactions present" true (List.mem_assoc "interactions" after)

let test_kernel_stats_memo_skipped () =
  let n = 6 in
  let e = Core.Silent_n_state.enumerable ~n in
  let kernel = Ir.Kernel.compile ~max_cells:1 e in
  check_bool "memoization skipped under tiny budget" true (kernel.Ir.Kernel.ir.Ir.table = None);
  check_bool "skip is logged" true
    (List.exists
       (fun l -> String.length l >= 8 && String.sub l 0 8 = "memoize:")
       kernel.Ir.Kernel.ir.Ir.log);
  let exec =
    Ir.Kernel.exec ~kind:Engine.Exec.Agent kernel ~init:(Core.Scenarios.silent_worst_case ~n)
      ~rng:(Prng.create ~seed:12)
  in
  for i = 1 to 50 do
    ignore (Engine.Exec.advance exec ~until:i)
  done;
  let stats = Engine.Exec.stats exec in
  check_int "kernel.table_cells" 0 (int_of_float (assoc "kernel.table_cells" stats));
  check_int "no memo hits possible" 0 (int_of_float (assoc "kernel.memo_hits" stats));
  check_bool "all steps interpreted" true (assoc "kernel.dynamic_steps" stats > 0.0)

(* --- jobs invariance: one shared kernel across a domain pool ------- *)

let test_jobs_invariant () =
  let n = 8 in
  let e = Core.Silent_n_state.enumerable ~n in
  let kernel = Ir.Kernel.compile e in
  let batch ~jobs =
    let children = Prng.split_many (Prng.create ~seed:77) 12 in
    Engine.Pool.with_pool ~jobs (fun pool ->
        Engine.Pool.init pool 12 (fun i ->
            let rng = children.(i) in
            let init = random_init ~rng e in
            let exec = Ir.Kernel.exec ~kind:Engine.Exec.Agent kernel ~init ~rng in
            runner_outcome ~exec ~n))
  in
  let one = batch ~jobs:1 and three = batch ~jobs:3 in
  Array.iteri
    (fun i o -> check_bool (Printf.sprintf "trial %d identical across --jobs" i) true (o = three.(i)))
    one

(* --- golden Ir.pp dumps -------------------------------------------- *)

let read_file path =
  (* dune runtest runs in _build/default/test (where the golden deps are
     staged); dune exec from the repo root does not chdir *)
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_golden ~key ~path =
  match Analysis.Registry.find key with
  | None -> Alcotest.failf "registry entry %s vanished" key
  | Some entry -> (
      match entry.Analysis.Registry.build ~n:4 with
      | Analysis.Registry.Any e ->
          let got = Format.asprintf "%a@." Ir.pp (Ir.Passes.pipeline e) in
          let want = read_file path in
          Alcotest.(check string)
            (Printf.sprintf "%s IR dump matches %s (regenerate: analyze --dump-ir %s --n 4)" key
               path key)
            want got)

let test_golden_baseline () = check_golden ~key:"baseline" ~path:"golden/ir_baseline.txt"

let test_golden_optimal_silent () =
  check_golden ~key:"optimal_silent_small" ~path:"golden/ir_optimal_silent.txt"

(* --- field fallback ------------------------------------------------ *)

let test_synthetic_fallback () =
  (* a descriptor with a broken (non-injective) field declaration still
     compiles, via the synthetic index field *)
  let n = 4 in
  let base = Core.Silent_n_state.enumerable ~n in
  let broken =
    {
      base with
      Engine.Enumerable.fields =
        [ { Engine.Enumerable.fname = "const"; frange = 2; fget = (fun _ -> 0) } ];
    }
  in
  let ir = Ir.Passes.pipeline broken in
  check_bool "fallback recorded" true (ir.Ir.synthesized <> None);
  check_int "all states live" n (Ir.size ir);
  let kernel = Ir.Kernel.of_ir ir in
  let init = Core.Scenarios.silent_worst_case ~n in
  let interp =
    Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol:base.Engine.Enumerable.protocol ~init
      ~rng:(Prng.create ~seed:5) ()
  in
  let compiled = Ir.Kernel.exec ~kind:Engine.Exec.Agent kernel ~init ~rng:(Prng.create ~seed:5) in
  check_bool "fallback kernel matches interpreter" true
    (runner_outcome ~exec:interp ~n = runner_outcome ~exec:compiled ~n)

(* the synthetic index composes with the rest of the pipeline: its codes
   are dense (no dead states) and memoization still builds the full table
   over synthesized codes *)
let test_synthetic_fallback_composes () =
  let n = 4 in
  let base = Core.Silent_n_state.enumerable ~n in
  let broken =
    {
      base with
      Engine.Enumerable.fields =
        [ { Engine.Enumerable.fname = "const"; frange = 2; fget = (fun _ -> 0) } ];
    }
  in
  let ir = Ir.Passes.pipeline broken in
  check_int "synthetic packed space is dense" n ir.Ir.packed_codes;
  check_bool "memo table built over synthesized codes" true (ir.Ir.table <> None);
  check_int "every ordered pair memoized static" (n * n) ir.Ir.static_pairs;
  (* memoized outputs stay inside the synthesized code space *)
  Ir.iter_static ir (fun ci cj oi oj ->
      if oi < 0 || oi >= n || oj < 0 || oj >= n then
        Alcotest.failf "pair (%d,%d) memoized out of range: (%d,%d)" ci cj oi oj)

(* --- memoization budget boundary ----------------------------------- *)

let test_max_cells_boundary () =
  (* the budget is exact: s*s cells memoize, s*s - 1 does not *)
  let e = Core.Reset_probe.enumerable ~n:4 () in
  let s = List.length e.Engine.Enumerable.states in
  let at_budget = Ir.Passes.pipeline ~max_cells:(s * s) e in
  check_bool "exactly s*s cells memoizes" true (at_budget.Ir.table <> None);
  check_int "all pairs classified" (s * s)
    (at_budget.Ir.static_pairs + at_budget.Ir.dynamic_pairs);
  let over_budget = Ir.Passes.pipeline ~max_cells:((s * s) - 1) e in
  check_bool "one cell short skips memoization" true (over_budget.Ir.table = None);
  check_bool "skip is logged with the budget" true
    (List.exists
       (fun l -> String.length l >= 16 && String.sub l 0 16 = "memoize: skipped")
       over_budget.Ir.log);
  (* the unmemoized IR still drives a correct kernel *)
  let init = Array.make 4 Core.Reset_probe.computing in
  init.(0) <- Core.Reset_probe.resetting ~resetcount:2 ~delaytimer:0;
  let a =
    Ir.Kernel.exec ~kind:Engine.Exec.Agent (Ir.Kernel.of_ir at_budget) ~init
      ~rng:(Prng.create ~seed:9)
  in
  let b =
    Ir.Kernel.exec ~kind:Engine.Exec.Agent (Ir.Kernel.of_ir over_budget) ~init
      ~rng:(Prng.create ~seed:9)
  in
  for i = 1 to 200 do
    ignore (Engine.Exec.advance a ~until:i);
    ignore (Engine.Exec.advance b ~until:i)
  done;
  check_bool "memoized and interpreted kernels agree" true
    (Engine.Exec.snapshot a = Engine.Exec.snapshot b)

let suite =
  [
    Alcotest.test_case "pack/unpack round-trips (all entries)" `Quick test_roundtrip_all_entries;
    Alcotest.test_case "DSE keeps every reachable code" `Quick test_dse_keeps_reachable;
    Alcotest.test_case "memo table matches direct interpretation" `Quick test_memo_matches_direct;
    Alcotest.test_case "agent-engine trajectories agree (all entries)" `Slow
      test_agent_trajectories;
    Alcotest.test_case "count-engine trajectories bit-identical (exact kernels)" `Slow
      test_count_trajectories;
    QCheck_alcotest.to_alcotest qcheck_runner_differential;
    Alcotest.test_case "kernel stats via Exec.stats" `Quick test_kernel_stats;
    Alcotest.test_case "kernel stats when memoization skipped" `Quick
      test_kernel_stats_memo_skipped;
    Alcotest.test_case "batch results invariant under --jobs" `Slow test_jobs_invariant;
    Alcotest.test_case "golden IR dump: baseline" `Quick test_golden_baseline;
    Alcotest.test_case "golden IR dump: optimal_silent_small" `Quick test_golden_optimal_silent;
    Alcotest.test_case "broken fields fall back to synthetic index" `Quick
      test_synthetic_fallback;
    Alcotest.test_case "synthetic fallback composes with DSE and memoize" `Quick
      test_synthetic_fallback_composes;
    Alcotest.test_case "memoization budget boundary is exact" `Quick test_max_cells_boundary;
  ]
