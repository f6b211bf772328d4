(* Differential cross-engine validation (test hardening pass).

   The per-interaction engine (Engine.Sim) and the count-based engine
   (Engine.Count_sim) sample the same Markov chain, so for a silent
   deterministic protocol the time-to-silence from a fixed initial
   configuration must agree between them *in law*, not just in mean. We
   check Silent-n-state-SSR from the worst-case configuration:

   - a two-sample KS test between the engines' time samples (α = 0.01,
     the most generous level, on fixed seeds);
   - both engines' sample means against the exact expected absorption
     time, solved on the weighted configuration chain of
     Analysis.Model_check from the protocol's Enumerable descriptor,
     within normal CI bounds (n ≤ 5, where exhaustive enumeration is
     cheap). *)

let trials = 200

(* Sim engine: step until the configuration is silent; parallel time. *)
let sim_time_to_silence ~n rng =
  let protocol = Core.Silent_n_state.protocol ~n in
  let sim = Engine.Sim.make ~protocol ~init:(Core.Scenarios.silent_worst_case ~n) ~rng in
  let cap = 100_000 * n in
  while
    (not (Engine.Silence.configuration_is_silent protocol (Engine.Sim.snapshot sim)))
    && Engine.Sim.interactions sim < cap
  do
    Engine.Sim.step sim
  done;
  if Engine.Sim.interactions sim >= cap then failwith "sim did not reach silence";
  Engine.Sim.parallel_time sim

(* Count engine: exact event-driven run to silence. *)
let count_time_to_silence ~n rng =
  let protocol = Core.Silent_n_state.protocol ~n in
  let exec =
    Engine.Exec.make ~kind:Engine.Exec.Count ~protocol ~init:(Core.Scenarios.silent_worst_case ~n)
      ~rng ()
  in
  let silent () = Engine.Exec.silent exec = Some true in
  Engine.Runner.run_while exec ~max_interactions:(100_000 * n) (fun () -> not (silent ()));
  if not (silent ()) then failwith "count_sim did not reach silence";
  Engine.Exec.parallel_time exec

let samples ~n ~seed body =
  Fleet.Run.run_trials ~jobs:2 ~trials ~seed (fun _ rng -> body ~n rng)

let test_engines_agree_in_law () =
  List.iter
    (fun n ->
      let sim = samples ~n ~seed:(4100 + n) sim_time_to_silence in
      let count = samples ~n ~seed:(4200 + n) count_time_to_silence in
      let d = Stats.Ks.statistic sim count in
      Alcotest.(check bool)
        (Printf.sprintf "KS accepts Sim vs Count_sim at n=%d (D=%.3f)" n d)
        true
        (Stats.Ks.same_distribution ~alpha:Stats.Ks.P01 sim count))
    [ 4; 5; 6 ]

let exact_expected_time ~n =
  let chain =
    Engine.Pool.with_pool ~jobs:1 (fun pool ->
        Analysis.Model_check.chain ~pool (Core.Silent_n_state.enumerable ~n))
  in
  Analysis.Model_check.expected_time chain (Core.Scenarios.silent_worst_case ~n)

let check_mean_matches_exact ~label ~exact xs =
  let mean = Stats.Summary.mean xs in
  let slack = (4.0 *. Stats.Summary.sem xs) +. 1e-9 in
  Alcotest.(check bool)
    (Printf.sprintf "%s mean %.3f within %.3f of exact %.3f" label mean slack exact)
    true
    (Float.abs (mean -. exact) <= slack)

let test_means_match_exact_chain () =
  List.iter
    (fun n ->
      let exact = exact_expected_time ~n in
      check_mean_matches_exact ~label:(Printf.sprintf "Sim n=%d" n) ~exact
        (samples ~n ~seed:(4300 + n) sim_time_to_silence);
      check_mean_matches_exact
        ~label:(Printf.sprintf "Count_sim n=%d" n)
        ~exact
        (samples ~n ~seed:(4400 + n) count_time_to_silence))
    [ 4; 5 ]

(* Chaos differential: the same seeded fault schedule driven through
   Chaos.Soak on both engines must yield the same *distribution* of
   recovery times. The schedule is periodic (consumes no randomness, so
   strikes land on identical interaction indices on both engines) and the
   adversary corrupts a fraction with random ranks; only the trajectories
   differ between engines, so the pooled per-burst recovery times are two
   samples from one law. *)
let chaos_recovery_times ~kind ~n ~seed =
  let schedule = Chaos.Schedule.periodic ~every:2000 in
  let adversary = Chaos.Adversary.corrupt ~fraction:0.25 in
  Fleet.Run.run_trials ~jobs:2 ~trials:120 ~seed (fun _ rng ->
      let protocol = Core.Silent_n_state.protocol ~n in
      let exec =
        Engine.Exec.make ~kind ~protocol ~init:(Core.Scenarios.silent_correct ~n) ~rng ()
      in
      Chaos.Soak.run ~schedule ~adversary
        ~random_state:(fun rng -> Core.Scenarios.silent_random_state rng ~n)
        ~rng ~horizon:80_000 exec)
  |> Array.to_list |> Chaos.Soak.pool
  |> fun t -> Array.of_list t.Telemetry.Timeline.Tally.recovered

let test_chaos_recovery_agrees_in_law () =
  let n = 8 in
  let agent = chaos_recovery_times ~kind:Engine.Exec.Agent ~n ~seed:4500 in
  let count = chaos_recovery_times ~kind:Engine.Exec.Count ~n ~seed:4600 in
  Alcotest.(check bool)
    (Printf.sprintf "enough recoveries pooled (agent %d, count %d)" (Array.length agent)
       (Array.length count))
    true
    (Array.length agent >= 50 && Array.length count >= 50);
  let d = Stats.Ks.statistic agent count in
  Alcotest.(check bool)
    (Printf.sprintf "KS accepts chaos recovery times across engines (D=%.3f)" d)
    true
    (Stats.Ks.same_distribution ~alpha:Stats.Ks.P01 agent count)

(* Faults that plant never-seen counter states: Optimal-Silent's correct
   configuration has a small live support, and a random corruption
   injects resetcount/delaytimer states no probe has ever evaluated. The
   count engine discovers those cells only at injection time (the
   stale-closure regression this guards against), and the recovery law
   must still match the agent engine's. *)
let optimal_fault_recovery_times ~make_exec ~n ~seed =
  Fleet.Run.run_trials ~jobs:2 ~trials:150 ~seed (fun _ rng ->
      let params = Core.Params.optimal_silent n in
      let protocol = Core.Optimal_silent.protocol ~params ~n () in
      let exec = make_exec ~protocol ~init:(Core.Scenarios.optimal_correct ~n) ~rng in
      ignore
        (Engine.Exec.corrupt exec ~rng ~fraction:0.25 (fun rng ->
             Core.Scenarios.optimal_random_state rng ~params ~n));
      let o =
        Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
          ~max_interactions:(10_000 * n)
          ~confirm_interactions:(Engine.Runner.default_confirm ~n)
          exec
      in
      if not o.Engine.Runner.converged then failwith "recovery did not converge";
      o.Engine.Runner.convergence_time)

let check_ks ~label a b =
  let d = Stats.Ks.statistic a b in
  Alcotest.(check bool)
    (Printf.sprintf "%s (KS D=%.3f)" label d)
    true
    (Stats.Ks.same_distribution ~alpha:Stats.Ks.P01 a b)

let test_fault_novel_states_agree_in_law () =
  let n = 12 in
  let agent =
    optimal_fault_recovery_times ~n ~seed:4700 ~make_exec:(fun ~protocol ~init ~rng ->
        Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng ())
  in
  let count =
    optimal_fault_recovery_times ~n ~seed:4800 ~make_exec:(fun ~protocol ~init ~rng ->
        Engine.Exec.make ~kind:Engine.Exec.Count ~protocol ~init ~rng ())
  in
  check_ks ~label:"recovery from never-seen states agrees across engines" agent count

let test_lazy_count_recovery_agrees_in_law () =
  (* Same differential, but the count engine is forced fully lazy
     (init_probe:false): no drain, every pair probed on demand, silence
     oracle three-valued — the Runner falls back to its confirmation
     window, and the law must still match the agent engine's. *)
  let n = 12 in
  let agent =
    optimal_fault_recovery_times ~n ~seed:4900 ~make_exec:(fun ~protocol ~init ~rng ->
        Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng ())
  in
  let lazy_count =
    optimal_fault_recovery_times ~n ~seed:5000 ~make_exec:(fun ~protocol ~init ~rng ->
        Engine.Exec.of_count_sim
          (Engine.Count_sim.make ~init_probe:false ~protocol ~init ~rng ()))
  in
  check_ks ~label:"lazy count engine recovery agrees with agent engine" agent lazy_count

let suite =
  [
    Alcotest.test_case "engines agree in law (KS)" `Slow test_engines_agree_in_law;
    Alcotest.test_case "engine means match exact chain" `Slow test_means_match_exact_chain;
    Alcotest.test_case "chaos recovery agrees in law (KS)" `Slow
      test_chaos_recovery_agrees_in_law;
    Alcotest.test_case "faults with never-seen states agree in law (KS)" `Slow
      test_fault_novel_states_agree_in_law;
    Alcotest.test_case "lazy count recovery agrees in law (KS)" `Slow
      test_lazy_count_recovery_agrees_in_law;
  ]
