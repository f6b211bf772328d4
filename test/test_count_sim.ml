(* Tests for the count-based (null-skipping) engine. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Advance to provable silence, within [max_interactions] (default
   100·n³, far past every run below). *)
let run_to_silence ?max_interactions cs =
  let n = Engine.Count_sim.n cs in
  let max_interactions = Option.value max_interactions ~default:(100 * n * n * n) in
  Engine.Runner.run_while (Engine.Exec.of_count_sim cs) ~max_interactions (fun () ->
      not (Engine.Count_sim.is_silent cs))

let test_rejects_randomized () =
  let p = Core.Sublinear.protocol ~n:4 ~h:0 () in
  let rng = Prng.create ~seed:1 in
  let init = Core.Scenarios.sublinear_fresh rng ~params:(Core.Params.sublinear ~h:0 4) ~n:4 in
  Alcotest.check_raises "randomized rejected"
    (Invalid_argument "Count_sim.make: protocol is randomized") (fun () ->
      ignore (Engine.Count_sim.make ~protocol:p ~init ~rng ()))

let test_rejects_size_mismatch () =
  let p = Core.Silent_n_state.protocol ~n:4 in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Count_sim.make: initial configuration size differs from protocol.n")
    (fun () ->
      ignore
        (Engine.Count_sim.make ~protocol:p
           ~init:[| Core.Silent_n_state.state_of_rank0 ~n:4 0 |]
           ~rng:(Prng.create ~seed:1) ()))

let test_correct_config_is_silent () =
  let n = 8 in
  let p = Core.Silent_n_state.protocol ~n in
  let cs =
    Engine.Count_sim.make ~protocol:p ~init:(Core.Scenarios.silent_correct ~n)
      ~rng:(Prng.create ~seed:2) ()
  in
  check_bool "silent" true (Engine.Count_sim.is_silent cs);
  check_bool "correct" true (Engine.Count_sim.ranking_correct cs);
  check_int "no interactions consumed" 0 (Engine.Count_sim.interactions cs);
  (* advancing a silent configuration only moves the clock *)
  check_bool "advance reports silence" false (Engine.Count_sim.advance cs ~until:100);
  check_int "still no events" 0 (Engine.Count_sim.events cs)

let test_worst_case_event_count () =
  (* The barrier configuration resolves in exactly n-1 productive events:
     the duplicate climbs one rank per bottleneck meeting. *)
  let n = 32 in
  let p = Core.Silent_n_state.protocol ~n in
  let cs =
    Engine.Count_sim.make ~protocol:p ~init:(Core.Scenarios.silent_worst_case ~n)
      ~rng:(Prng.create ~seed:3) ()
  in
  run_to_silence cs;
  check_bool "silent" true (Engine.Count_sim.is_silent cs);
  check_bool "correct" true (Engine.Count_sim.ranking_correct cs);
  check_int "exactly n-1 events" (n - 1) (Engine.Count_sim.events cs);
  check_bool "time is Θ(n²)-scale" true
    (Engine.Count_sim.parallel_time cs > float_of_int (n * n) /. 8.0)

let test_agrees_with_array_engine () =
  (* Same process, different engines: means over many trials must agree. *)
  let n = 12 in
  let p = Core.Silent_n_state.protocol ~n in
  let trials = 120 in
  let array_mean =
    let acc = ref 0.0 in
    for k = 1 to trials do
      let rng = Prng.create ~seed:(9000 + k) in
      let init = Core.Scenarios.silent_uniform rng ~n in
      let sim = Engine.Sim.make ~protocol:p ~init ~rng in
      let o =
        Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
          ~max_interactions:(100 * n * n * n)
          ~confirm_interactions:(Engine.Runner.default_confirm ~n)
          (Engine.Exec.of_sim sim)
      in
      acc := !acc +. o.Engine.Runner.convergence_time
    done;
    !acc /. float_of_int trials
  in
  let count_mean =
    let acc = ref 0.0 in
    for k = 1 to trials do
      let rng = Prng.create ~seed:(9000 + k) in
      let init = Core.Scenarios.silent_uniform rng ~n in
      let cs = Engine.Count_sim.make ~protocol:p ~init ~rng () in
      run_to_silence cs;
      acc := !acc +. Engine.Count_sim.parallel_time cs
    done;
    !acc /. float_of_int trials
  in
  check_bool
    (Printf.sprintf "means agree within 15%% (array %.1f vs count %.1f)" array_mean count_mean)
    true
    (Float.abs (array_mean -. count_mean) /. array_mean < 0.15)

let test_distribution_matches_array_engine () =
  (* Beyond means: the two engines sample the same law, checked by a
     two-sample Kolmogorov-Smirnov test at alpha = 0.01. *)
  let n = 10 in
  let p = Core.Silent_n_state.protocol ~n in
  let trials = 300 in
  let array_times =
    Array.init trials (fun k ->
        let rng = Prng.create ~seed:(40_000 + k) in
        let init = Core.Scenarios.silent_uniform rng ~n in
        let sim = Engine.Sim.make ~protocol:p ~init ~rng in
        let o =
          Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
            ~max_interactions:(100 * n * n * n)
            ~confirm_interactions:(Engine.Runner.default_confirm ~n)
            (Engine.Exec.of_sim sim)
        in
        o.Engine.Runner.convergence_time)
  in
  let count_times =
    Array.init trials (fun k ->
        let rng = Prng.create ~seed:(50_000 + k) in
        let init = Core.Scenarios.silent_uniform rng ~n in
        let cs = Engine.Count_sim.make ~protocol:p ~init ~rng () in
        run_to_silence cs;
        Engine.Count_sim.parallel_time cs)
  in
  check_bool "same distribution (KS, alpha=0.01)" true
    (Stats.Ks.same_distribution array_times count_times)

let test_monitor_over_counts () =
  let n = 4 in
  let p = Core.Silent_n_state.protocol ~n in
  let init = Array.map (Core.Silent_n_state.state_of_rank0 ~n) [| 0; 1; 2; 2 |] in
  let cs = Engine.Count_sim.make ~protocol:p ~init ~rng:(Prng.create ~seed:5) () in
  check_bool "initially incorrect" false (Engine.Count_sim.ranking_correct cs);
  check_int "one leader (rank 1 = internal 0)" 1 (Engine.Count_sim.leader_count cs);
  run_to_silence cs;
  check_bool "stabilizes" true
    (Engine.Count_sim.is_silent cs && Engine.Count_sim.ranking_correct cs);
  check_bool "leader correct at end" true (Engine.Count_sim.leader_correct cs)

let test_optimal_silent_through_count_engine () =
  (* The generic engine also drives the richer deterministic protocol
     (resets and all) to its silent correct configuration. *)
  let n = 12 in
  let params = Core.Params.optimal_silent n in
  let p = Core.Optimal_silent.protocol ~params ~n () in
  let rng = Prng.create ~seed:6 in
  let init = Core.Scenarios.optimal_uniform rng ~params ~n in
  let cs = Engine.Count_sim.make ~protocol:p ~init ~rng () in
  run_to_silence cs;
  check_bool "silent" true (Engine.Count_sim.is_silent cs);
  check_bool "ranked" true (Engine.Count_sim.ranking_correct cs)

let test_interactions_dominate_events () =
  let n = 16 in
  let p = Core.Silent_n_state.protocol ~n in
  let cs =
    Engine.Count_sim.make ~protocol:p ~init:(Core.Scenarios.silent_worst_case ~n)
      ~rng:(Prng.create ~seed:7) ()
  in
  run_to_silence cs;
  let events = Engine.Count_sim.events cs and interactions = Engine.Count_sim.interactions cs in
  check_bool "events <= interactions" true (events <= interactions);
  check_bool "null interactions were skipped" true (interactions > 10 * events)

(* ---------- lazy probing and the tri-state oracle ---------- *)

let test_tri_state_silence_oracle () =
  let n = 8 in
  let p = Core.Silent_n_state.protocol ~n in
  (* drained: silence decided exactly, both ways *)
  let cs =
    Engine.Count_sim.make ~protocol:p ~init:(Core.Scenarios.silent_correct ~n)
      ~rng:(Prng.create ~seed:31) ()
  in
  check_bool "auto-drained" true (Engine.Count_sim.drained cs);
  Alcotest.(check (option bool)) "provably silent" (Some true) (Engine.Count_sim.silent cs);
  let cs =
    Engine.Count_sim.make ~protocol:p ~init:(Core.Scenarios.silent_worst_case ~n)
      ~rng:(Prng.create ~seed:32) ()
  in
  Alcotest.(check (option bool)) "provably live" (Some false) (Engine.Count_sim.silent cs);
  (* lazy: the same silent configuration is not (yet) provable *)
  let cs =
    Engine.Count_sim.make ~init_probe:false ~protocol:p ~init:(Core.Scenarios.silent_correct ~n)
      ~rng:(Prng.create ~seed:33) ()
  in
  check_bool "init_probe:false suppresses the drain" false (Engine.Count_sim.drained cs);
  Alcotest.(check (option bool)) "lazy cannot decide" None (Engine.Count_sim.silent cs);
  check_bool "no probes yet" true (Engine.Count_sim.pairs_probed cs = 0)

(* Runner-level convergence times of [trials] Silent-n-state runs from
   uniform starts, with the engines they ran on. *)
let convergence_runs ?null_budget ~init_probe ~n ~trials seed0 =
  let p = Core.Silent_n_state.protocol ~n in
  Array.init trials (fun k ->
      let rng = Prng.create ~seed:(seed0 + k) in
      let init = Core.Scenarios.silent_uniform rng ~n in
      let cs = Engine.Count_sim.make ~init_probe ?null_budget ~protocol:p ~init ~rng () in
      let o =
        Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
          ~max_interactions:(200 * n * n * n)
          ~confirm_interactions:(Engine.Runner.default_confirm ~n)
          (Engine.Exec.of_count_sim cs)
      in
      if not o.Engine.Runner.converged then failwith "did not converge";
      (o.Engine.Runner.convergence_time, cs))

let test_lazy_matches_drained_law () =
  (* Forced-lazy probing and the eager drain sample the same chain: the
     Runner-level convergence times (same observable in both modes) must
     agree in law. *)
  let n = 10 in
  let times init_probe seed0 =
    Array.map fst (convergence_runs ~init_probe ~n ~trials:250 seed0)
  in
  let eager = times true 61_000 and lazy_times = times false 62_000 in
  let d = Stats.Ks.statistic eager lazy_times in
  check_bool
    (Printf.sprintf "lazy and drained agree in law (KS D=%.3f)" d)
    true
    (Stats.Ks.same_distribution ~alpha:Stats.Ks.P01 eager lazy_times)

let test_tiny_budget_matches_drained_law () =
  (* A null budget of 16 at n = 10 (T = 90 ordered agent pairs): the
     everything-fits rule holds only while at most four cells are live,
     so most nulls are admitted by their scheduler share (weight >= 6)
     or not at all, and the budget itself runs out. Refused nulls stay
     unknown and are re-probed when drawn again. The law must not move. *)
  let n = 10 in
  let eager = Array.map fst (convergence_runs ~init_probe:true ~n ~trials:250 63_000) in
  let runs = convergence_runs ~null_budget:16 ~init_probe:false ~n ~trials:250 64_000 in
  let tiny = Array.map fst runs in
  let module C = Engine.Count_sim in
  let nulls_cached cs = C.pairs_cached cs - C.productive_pairs cs in
  check_bool "some nulls admitted" true (Array.exists (fun (_, cs) -> nulls_cached cs > 0) runs);
  check_bool "budget respected" true (Array.for_all (fun (_, cs) -> nulls_cached cs <= 16) runs);
  (* more probes than distinct cell pairs: some pair was probed twice *)
  check_bool "uncached nulls re-probed" true
    (Array.exists (fun (_, cs) -> C.pairs_probed cs > C.closure_size cs * C.closure_size cs) runs);
  let d = Stats.Ks.statistic eager tiny in
  check_bool
    (Printf.sprintf "tiny-budget lazy and drained agree in law (KS D=%.3f)" d)
    true
    (Stats.Ks.same_distribution ~alpha:Stats.Ks.P01 eager tiny)

let test_admission_keeps_silence_provable () =
  (* Lazy Silent-n-state from its correct configuration, n = 8: P is
     empty, so L = X = 8 and X (2L - X) = 64, while the 56 needed pairs
     all have weight 1 against T = 56. Budget 64 admits every null by the
     everything-fits rule, 56 by the share rule, and both prove silence
     on the same trajectory as the default budget. At 55 neither rule
     admits anything: silence stays unprovable and the Runner confirms
     by its window instead, with the same convergence verdict. *)
  let n = 8 in
  let p = Core.Silent_n_state.protocol ~n in
  let confirm = 100_000 in
  let run null_budget =
    let cs =
      Engine.Count_sim.make ~init_probe:false ?null_budget ~protocol:p
        ~init:(Core.Scenarios.silent_correct ~n) ~rng:(Prng.create ~seed:71) ()
    in
    let o =
      Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking ~max_interactions:(2 * confirm)
        ~confirm_interactions:confirm (Engine.Exec.of_count_sim cs)
    in
    (o, cs)
  in
  let reference, cs = run None in
  check_int "started lazy: every live cell unprobed" n (Engine.Count_sim.live_unprobed cs);
  let drained =
    Engine.Count_sim.make ~protocol:p ~init:(Core.Scenarios.silent_correct ~n)
      ~rng:(Prng.create ~seed:71) ()
  in
  check_int "drained: no live cell unprobed" 0 (Engine.Count_sim.live_unprobed drained);
  Alcotest.(check (option bool)) "default budget: provably silent" (Some true)
    (Engine.Count_sim.silent cs);
  check_bool "silence cut the window short" true
    (reference.Engine.Runner.total_interactions < confirm);
  List.iter
    (fun b ->
      let o, cs = run (Some b) in
      Alcotest.(check (option bool))
        (Printf.sprintf "budget %d: provably silent" b)
        (Some true) (Engine.Count_sim.silent cs);
      check_bool (Printf.sprintf "budget %d: same Runner outcome" b) true (o = reference))
    [ n * n; n * (n - 1) ];
  let o, cs = run (Some ((n * (n - 1)) - 1)) in
  Alcotest.(check (option bool)) "budget 55: undecided" None (Engine.Count_sim.silent cs);
  check_int "budget 55: no null cached" 0 (Engine.Count_sim.pairs_cached cs);
  check_bool "budget 55: same verdict" true
    (o.Engine.Runner.converged
    && o.Engine.Runner.convergence_interactions = reference.Engine.Runner.convergence_interactions
    && o.Engine.Runner.violations = reference.Engine.Runner.violations);
  check_int "budget 55: the full window ran" confirm o.Engine.Runner.total_interactions

let test_everything_fits_rule () =
  (* The everything-fits rule on its own, on a star (n = 8), where
     Silent-n-state is silent as soon as the hub's rank differs from
     every leaf's: hub 0, six leaves at 1, one at 2. That is L = X = 3
     live cells, X (2L - X) = 9. The hub/rank-2 pairs carry weight 1
     against T = 7 at q = 1/2, a share of 1/14 that the share rule admits
     only from B = 14. So B = 9 caches all four needed nulls and proves
     silence; B = 8 leaves two unknown for good. *)
  let n = 8 in
  let p = Core.Silent_n_state.protocol ~n in
  let classes = Engine.Topology.degree_classes (Engine.Topology.star ~n) in
  let rank = Core.Silent_n_state.state_of_rank0 ~n in
  let init = Array.init n (fun i -> rank (if i = 0 then 0 else if i = 1 then 2 else 1)) in
  let settle null_budget =
    let cs =
      Engine.Count_sim.make ~classes ~init_probe:false ~null_budget ~protocol:p ~init
        ~rng:(Prng.create ~seed:73) ()
    in
    run_to_silence ~max_interactions:10_000 cs;
    check_int (Printf.sprintf "budget %d: no event" null_budget) 0 (Engine.Count_sim.events cs);
    Engine.Count_sim.silent cs
  in
  Alcotest.(check (option bool)) "budget 9: provably silent" (Some true) (settle 9);
  Alcotest.(check (option bool)) "budget 8: undecided" None (settle 8)

let test_optimal_window_caches_nothing () =
  (* Optimal-silent's correct configuration at n = 2000 has 2000 distinct
     states. Left lazy (the eager drain would prove silence at once, as
     it does up to 4096 live cells), X (2L - X) = n^2 and T = n (n - 1)
     both exceed 2^21: no null earns a slot, every tick of the
     confirmation window is one uncached probe, and no event fires. *)
  let n = 2000 in
  let params = Core.Params.optimal_silent n in
  let p = Core.Optimal_silent.protocol ~params ~n () in
  let cs =
    Engine.Count_sim.make ~init_probe:false ~protocol:p
      ~init:(Core.Scenarios.optimal_correct ~n) ~rng:(Prng.create ~seed:72) ()
  in
  let confirm = Engine.Runner.default_confirm ~n in
  let o =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking ~max_interactions:(2 * confirm)
      ~confirm_interactions:confirm (Engine.Exec.of_count_sim cs)
  in
  check_bool "converged" true o.Engine.Runner.converged;
  check_int "events" 0 (Engine.Count_sim.events cs);
  check_int "total interactions" confirm o.Engine.Runner.total_interactions;
  check_int "pairs cached" 0 (Engine.Count_sim.pairs_cached cs)

(* ---------- Fenwick excluded draw ---------- *)

let qcheck_excluded_draw =
  (* The count engine draws "any agent but this one" by shifting the
     target past the excluded agent's position instead of removing the
     agent from the tree; both must pick the same slot for every target. *)
  QCheck.Test.make ~name:"fenwick shifted draw equals remove/draw/restore" ~count:500
    QCheck.(triple (list_of_size (Gen.int_range 1 40) (int_bound 5)) small_nat small_nat)
    (fun (weights, e, r) ->
      let total = List.fold_left ( + ) 0 weights in
      let positive = List.filter (fun i -> List.nth weights i > 0) (List.init (List.length weights) Fun.id) in
      QCheck.assume (total >= 2);
      let f = Engine.Fenwick.create () in
      List.iteri
        (fun i w ->
          Engine.Fenwick.append f;
          Engine.Fenwick.add f i w)
        weights;
      let s = List.nth positive (e mod List.length positive) in
      let target = r mod (total - 1) in
      let excluded = Engine.Fenwick.prefix f s - 1 in
      let shifted = Engine.Fenwick.find f (if target >= excluded then target + 1 else target) in
      Engine.Fenwick.add f s (-1);
      let mutated = Engine.Fenwick.find f target in
      Engine.Fenwick.add f s 1;
      shifted = mutated)

(* ---------- Fenwick descent against a linear scan ---------- *)

let qcheck_find_matches_scan =
  (* Each operation appends a slot of weight [w] or, when [update] holds
     and a slot exists, sets the weight of the earlier slot [pick mod
     len] to [w]. Up to 140 operations cross the capacity doublings at
     16, 32 and 64 slots after arbitrary earlier updates, so the growth
     that copies only the partial sums is checked on a non-zero history;
     weight 0 is drawn often so that empty slots sit on every side of a
     descent's pivot. *)
  QCheck.Test.make ~name:"fenwick find and prefix equal a linear scan" ~count:500
    QCheck.(list_of_size (Gen.int_range 1 140) (triple bool small_nat (int_bound 3)))
    (fun ops ->
      let f = Engine.Fenwick.create () in
      let weights = ref [||] in
      List.iter
        (fun (update, pick, w) ->
          let len = Array.length !weights in
          if update && len > 0 then begin
            let i = pick mod len in
            Engine.Fenwick.add f i (w - !weights.(i));
            !weights.(i) <- w
          end
          else begin
            Engine.Fenwick.append f;
            Engine.Fenwick.add f len w;
            weights := Array.append !weights [| w |]
          end)
        ops;
      let ok = ref (Engine.Fenwick.length f = Array.length !weights) and sum = ref 0 in
      Array.iteri
        (fun i w ->
          for target = !sum to !sum + w - 1 do
            if Engine.Fenwick.find f target <> i then ok := false
          done;
          sum := !sum + w;
          if Engine.Fenwick.prefix f i <> !sum then ok := false)
        !weights;
      !ok && Engine.Fenwick.total f = !sum)

let test_find_past_branchless_capacity () =
  (* 2^18 + 5 slots take the tree to capacity 2^19, where [find] descends
     with a branch: each found slot must cover its target. *)
  let slots = (1 lsl 18) + 5 in
  let rng = Prng.create ~seed:17 in
  let f = Engine.Fenwick.create () in
  for i = 0 to slots - 1 do
    Engine.Fenwick.append f;
    Engine.Fenwick.add f i (Prng.int rng 4)
  done;
  for _ = 1 to 1000 do
    Engine.Fenwick.add f (Prng.int rng slots) 1
  done;
  for _ = 1 to 10_000 do
    let target = Prng.int rng (Engine.Fenwick.total f) in
    let i = Engine.Fenwick.find f target in
    let before = if i = 0 then 0 else Engine.Fenwick.prefix f (i - 1) in
    if not (before <= target && target < Engine.Fenwick.prefix f i) then
      Alcotest.failf "target %d found slot %d covering [%d, %d)" target i before
        (Engine.Fenwick.prefix f i)
  done

(* ---------- degree-class lumping ---------- *)

let test_classes_snapshot_and_faults () =
  let n = 9 in
  let p = Core.Silent_n_state.protocol ~n in
  let classes = Engine.Topology.degree_classes (Engine.Topology.star ~n) in
  let init = Array.init n (fun i -> Core.Silent_n_state.state_of_rank0 ~n (i mod 4)) in
  let cs = Engine.Count_sim.make ~classes ~protocol:p ~init ~rng:(Prng.create ~seed:41) () in
  check_bool "star lumping exact" true (Engine.Count_sim.lumping_exact cs);
  let ranks_of agents config =
    List.map (fun i -> (config.(i) : Core.Silent_n_state.state :> int)) agents
    |> List.sort compare
  in
  let leaves = List.init (n - 1) (fun i -> i + 1) in
  let snap = Engine.Count_sim.snapshot cs in
  (* the per-agent view preserves each class's multiset (agents within a
     class are exchangeable, so only the multiset is meaningful) *)
  Alcotest.(check (list int)) "hub multiset" (ranks_of [ 0 ] init) (ranks_of [ 0 ] snap);
  Alcotest.(check (list int)) "leaf multiset" (ranks_of leaves init) (ranks_of leaves snap);
  (* injecting at a leaf changes exactly the leaf class's multiset *)
  let planted = Core.Silent_n_state.state_of_rank0 ~n 7 in
  Engine.Count_sim.inject cs 5 planted;
  let snap' = Engine.Count_sim.snapshot cs in
  Alcotest.(check (list int)) "hub untouched" (ranks_of [ 0 ] init) (ranks_of [ 0 ] snap');
  (* exactly one leaf entry was replaced by the planted rank: the new
     multiset minus one 7 is a sub-multiset of the old one, same size *)
  let old_leaves = ranks_of leaves snap in
  let new_leaves = ranks_of leaves snap' in
  check_bool "planted rank appears among leaves" true (List.mem 7 new_leaves);
  check_int "population preserved" (List.length old_leaves) (List.length new_leaves);
  let remove_one x l =
    let rec go acc = function
      | [] -> List.rev acc
      | y :: rest when y = x -> List.rev_append acc rest
      | y :: rest -> go (y :: acc) rest
    in
    go [] l
  in
  let is_submultiset a b = List.fold_left (fun b x -> remove_one x b) b a |> List.length
                           = List.length b - List.length a in
  check_bool "one swap only" true (is_submultiset (remove_one 7 new_leaves) old_leaves);
  (* corrupt stays in bounds and reports its count *)
  let hit =
    Engine.Count_sim.corrupt cs ~rng:(Prng.create ~seed:43) ~fraction:0.5 (fun rng ->
        Core.Silent_n_state.state_of_rank0 ~n (Prng.int rng n))
  in
  check_int "corrupt count" (int_of_float (Float.round (0.5 *. float_of_int n))) hit;
  check_int "n preserved" n (Array.length (Engine.Count_sim.snapshot cs))

let test_star_lumping_silent_but_incorrect () =
  (* A duplicate rank planted on two leaves: the star schedules only
     hub-leaf pairs, so the duplicates can never meet — the lumped run is
     provably silent yet incorrect. This is the fixed graph's honest
     physics (the paper's protocols assume the complete graph), and the
     exact lumping reproduces it. *)
  let n = 8 in
  let p = Core.Silent_n_state.protocol ~n in
  let classes = Engine.Topology.degree_classes (Engine.Topology.star ~n) in
  let init = Array.init n (Core.Silent_n_state.state_of_rank0 ~n) in
  init.(1) <- init.(2);
  let cs = Engine.Count_sim.make ~classes ~protocol:p ~init ~rng:(Prng.create ~seed:44) () in
  check_bool "provably silent" true (Engine.Count_sim.is_silent cs);
  check_bool "yet incorrect" false (Engine.Count_sim.ranking_correct cs);
  (* the same configuration on the complete graph is live *)
  let cs =
    Engine.Count_sim.make ~protocol:p ~init:(Array.copy init) ~rng:(Prng.create ~seed:45) ()
  in
  Alcotest.(check (option bool)) "complete graph: live" (Some false) (Engine.Count_sim.silent cs)

(* ---------- pinned productive-pair selection ---------- *)

(* One line per run: events, interactions, pairs probed, productive pairs
   and the md5 of the final snapshot's printed states. Every productive
   hit selects its pair from the recorded pairs of its class pair, so
   these lines change as soon as the selection picks a different pair
   for some target, or draws a different number of random values. *)
let pin_line label p cs =
  let snap = Engine.Count_sim.snapshot cs in
  let printed =
    String.concat ";" (Array.to_list (Array.map (Format.asprintf "%a" p.Engine.Protocol.pp) snap))
  in
  Printf.sprintf "%s events=%d interactions=%d probed=%d productive=%d md5=%s" label
    (Engine.Count_sim.events cs) (Engine.Count_sim.interactions cs)
    (Engine.Count_sim.pairs_probed cs) (Engine.Count_sim.productive_pairs cs)
    (Digest.to_hex (Digest.string printed))

let pin_to_stability cs ~n =
  ignore
    (Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking ~max_interactions:(2000 * n * n)
       ~confirm_interactions:(Engine.Runner.default_confirm ~n) (Engine.Exec.of_count_sim cs))

let test_productive_selection_pinned () =
  let n = 48 in
  let params = Core.Params.optimal_silent n in
  let p = Core.Optimal_silent.protocol ~params ~n () in
  let uniform_start seed =
    let rng = Prng.create ~seed in
    (rng, Core.Scenarios.optimal_uniform rng ~params ~n)
  in
  (* count-dense's runs: one class pair, dense productive pairs *)
  let dense =
    List.map
      (fun seed ->
        let rng, init = uniform_start seed in
        let cs = Engine.Count_sim.make ~protocol:p ~init ~rng () in
        pin_to_stability cs ~n;
        pin_line (Printf.sprintf "dense seed=%d" seed) p cs)
      [ 1; 2; 3 ]
  in
  (* the complete tripartite graph K(4,12,32): three degree classes, six
     scheduled class pairs, each with its own productive pairs *)
  let sizes = [| 4; 12; 32 |] in
  let class_of = Array.init n (fun i -> if i < 4 then 0 else if i < 16 then 1 else 2) in
  let classes =
    {
      Engine.Topology.graph = "tripartite";
      agents = n;
      nc = 3;
      class_of;
      sizes;
      members =
        Array.init 3 (fun a ->
            Array.of_list (List.filter (fun i -> class_of.(i) = a) (List.init n Fun.id)));
      mix =
        Array.init 3 (fun a -> Array.init 3 (fun b -> if a = b then 0 else sizes.(a) * sizes.(b)));
      exact = true;
    }
  in
  let lumped =
    let rng, init = uniform_start 4 in
    let cs = Engine.Count_sim.make ~classes ~protocol:p ~init ~rng () in
    Engine.Runner.run_while (Engine.Exec.of_count_sim cs) ~max_interactions:(200 * n) (fun () ->
        true);
    pin_line "tripartite seed=4" p cs
  in
  (* corruption after the demotion to lazy mode: the cells it makes live
     are never probed in bulk, only drawn, so their productive pairs are
     recorded one at a time outside P *)
  let corrupted =
    let rng, init = uniform_start 5 in
    let cs = Engine.Count_sim.make ~protocol:p ~init ~rng () in
    Engine.Runner.run_while (Engine.Exec.of_count_sim cs) ~max_interactions:(2000 * n * n)
      (fun () -> Engine.Count_sim.drained cs);
    check_bool "demoted before the corruption" false (Engine.Count_sim.drained cs);
    let demoted = pin_line "demoted seed=5" p cs in
    ignore
      (Engine.Count_sim.corrupt cs ~rng:(Prng.create ~seed:6) ~fraction:0.25 (fun rng ->
           Core.Scenarios.optimal_random_state rng ~params ~n));
    pin_to_stability cs ~n;
    [ demoted; pin_line "corrupted seed=5" p cs ]
  in
  Alcotest.(check (list string))
    "pinned runs"
    [
      "dense seed=1 events=7304 interactions=9842 probed=72778 productive=70994 \
       md5=f77fdd902920056fbbf6ea5542b99885";
      "dense seed=2 events=7147 interactions=9607 probed=73119 productive=71487 \
       md5=b0c390d6a7e8a5fda4b73ff382ef77e4";
      "dense seed=3 events=7604 interactions=11197 probed=73490 productive=71221 \
       md5=bd2951bed2b7e117836028887724f0ae";
      "tripartite seed=4 events=9261 interactions=9600 probed=73447 productive=72709 \
       md5=4725c84b0cfc5a0c26700204ff3c8e1d";
      "demoted seed=5 events=291 interactions=297 probed=66049 productive=65871 \
       md5=8abdee8c41e1c35033eefa043beca0dd";
      "corrupted seed=5 events=7256 interactions=10696 probed=73645 productive=71649 \
       md5=1d8fd5cc73a8026d29cc9450108efa31";
    ]
    (dense @ [ lumped ] @ corrupted)

let suite =
  [
    Alcotest.test_case "rejects randomized" `Quick test_rejects_randomized;
    Alcotest.test_case "rejects size mismatch" `Quick test_rejects_size_mismatch;
    Alcotest.test_case "correct config silent" `Quick test_correct_config_is_silent;
    Alcotest.test_case "worst case event count" `Quick test_worst_case_event_count;
    Alcotest.test_case "agrees with array engine" `Slow test_agrees_with_array_engine;
    Alcotest.test_case "distribution matches array engine" `Slow test_distribution_matches_array_engine;
    Alcotest.test_case "monitor over counts" `Quick test_monitor_over_counts;
    Alcotest.test_case "optimal-silent through count engine" `Slow test_optimal_silent_through_count_engine;
    Alcotest.test_case "null skipping" `Quick test_interactions_dominate_events;
    Alcotest.test_case "tri-state silence oracle" `Quick test_tri_state_silence_oracle;
    Alcotest.test_case "lazy matches drained law (KS)" `Slow test_lazy_matches_drained_law;
    Alcotest.test_case "tiny null budget matches drained law (KS)" `Slow
      test_tiny_budget_matches_drained_law;
    Alcotest.test_case "null admission keeps silence provable" `Quick
      test_admission_keeps_silence_provable;
    Alcotest.test_case "null admission: everything-fits rule" `Quick test_everything_fits_rule;
    Alcotest.test_case "optimal-silent window caches no null" `Slow
      test_optimal_window_caches_nothing;
    QCheck_alcotest.to_alcotest qcheck_excluded_draw;
    QCheck_alcotest.to_alcotest qcheck_find_matches_scan;
    Alcotest.test_case "fenwick find past the branchless capacity" `Quick
      test_find_past_branchless_capacity;
    Alcotest.test_case "classes snapshot and faults" `Quick test_classes_snapshot_and_faults;
    Alcotest.test_case "star lumping silent but incorrect" `Quick
      test_star_lumping_silent_but_incorrect;
    Alcotest.test_case "productive selection pinned" `Slow test_productive_selection_pinned;
  ]
