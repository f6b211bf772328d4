(* Tests for the executor abstraction (Engine.Exec), the Instrument
   event layer, and the executor-polymorphic Runner. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let silent_exec ~kind ~n ~seed ~init =
  let protocol = Core.Silent_n_state.protocol ~n in
  let rng = Prng.create ~seed in
  Engine.Exec.make ~kind ~protocol ~init:(init rng) ~rng ()

(* ------------------------------------------------------------------ *)
(* Runner outcome construction (regression tests for the unconverged
   arms: convergence_interactions must never be a fabricated zero).   *)

let test_unconverged_reports_horizon () =
  (* A worst-case barrier configuration cannot settle within a tiny
     horizon; the outcome must report the full interaction budget as
     the (censored) convergence point, not 0. *)
  let n = 64 in
  let horizon = 5 in
  let exec =
    silent_exec ~kind:Engine.Exec.Agent ~n ~seed:71 ~init:(fun _ ->
        Core.Scenarios.silent_worst_case ~n)
  in
  let o =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking ~max_interactions:horizon
      ~confirm_interactions:(Engine.Runner.default_confirm ~n) exec
  in
  check_bool "not converged" false o.Engine.Runner.converged;
  check_int "censored at the horizon" horizon o.Engine.Runner.convergence_interactions;
  check_int "total = horizon" horizon o.Engine.Runner.total_interactions

let test_unconverged_mid_window_reports_entry () =
  (* If the run becomes correct but the horizon cuts the confirmation
     window short, the outcome is unconverged yet reports the pending
     entry point (the best available estimate), not the horizon. *)
  let n = 8 in
  let exec =
    silent_exec ~kind:Engine.Exec.Agent ~n ~seed:72 ~init:(fun _ ->
        Core.Scenarios.silent_correct ~n)
  in
  let o =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking ~max_interactions:3
      ~confirm_interactions:1_000_000 exec
  in
  check_bool "window cut short" false o.Engine.Runner.converged;
  check_int "reports the entry point" 0 o.Engine.Runner.convergence_interactions

let test_converged_reports_entry () =
  let n = 16 in
  let exec =
    silent_exec ~kind:Engine.Exec.Agent ~n ~seed:73 ~init:(fun rng ->
        Core.Scenarios.silent_uniform rng ~n)
  in
  let o =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
      ~max_interactions:(100 * n * n * n)
      ~confirm_interactions:(Engine.Runner.default_confirm ~n) exec
  in
  check_bool "converged" true o.Engine.Runner.converged;
  check_bool "entry before end" true
    (o.Engine.Runner.convergence_interactions <= o.Engine.Runner.total_interactions)

(* ------------------------------------------------------------------ *)
(* Runner.run_while: the bounded-advance primitive.                   *)

let test_run_while_matches_steps () =
  (* On the agent engine an advance is one Sim.step: k interactions of
     run_while leave the configuration k steps leave on a same-seed twin. *)
  let n = 16 and k = 777 in
  let protocol = Core.Silent_n_state.protocol ~n in
  let init = Core.Scenarios.silent_uniform (Prng.create ~seed:5) ~n in
  let exec = Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng:(Prng.create ~seed:6) () in
  Engine.Runner.run_while exec ~max_interactions:k (fun () -> true);
  let sim = Engine.Sim.make ~protocol ~init ~rng:(Prng.create ~seed:6) in
  for _ = 1 to k do Engine.Sim.step sim done;
  check_int "k interactions" k (Engine.Exec.interactions exec);
  check_bool "same configuration" true (Engine.Exec.snapshot exec = Engine.Sim.snapshot sim)

let test_run_while_false_predicate () =
  List.iter
    (fun kind ->
      let n = 16 in
      let exec =
        silent_exec ~kind ~n ~seed:7 ~init:(fun rng -> Core.Scenarios.silent_uniform rng ~n)
      in
      Engine.Runner.run_while exec ~max_interactions:max_int (fun () -> false);
      let label = Engine.Exec.kind_to_string kind in
      check_int (label ^ ": no interaction") 0 (Engine.Exec.interactions exec);
      check_int (label ^ ": no event") 0 (Engine.Exec.events exec))
    [ Engine.Exec.Agent; Engine.Exec.Count ]

let test_run_while_count_bound () =
  (* The count engine jumps over nulls, yet its clock never passes a
     finite bound: a hit sampled past it parks the clock on it. *)
  let n = 32 in
  let exec =
    silent_exec ~kind:Engine.Exec.Count ~n ~seed:8 ~init:(fun _ ->
        Core.Scenarios.silent_worst_case ~n)
  in
  for k = 1 to 40 do
    let bound = 37 * k in
    Engine.Runner.run_while exec ~max_interactions:bound (fun () ->
        check_bool "clock below the bound" true (Engine.Exec.interactions exec < bound);
        true);
    check_int (Printf.sprintf "clock parked at %d" bound) bound (Engine.Exec.interactions exec)
  done;
  check_bool "some events ran" true (Engine.Exec.events exec > 0)

let test_run_while_silent_returns () =
  (* A provably silent count engine under an unbounded horizon: the
     first advance reports silence and the loop ends. *)
  let n = 16 in
  let exec =
    silent_exec ~kind:Engine.Exec.Count ~n ~seed:9 ~init:(fun _ ->
        Core.Scenarios.silent_correct ~n)
  in
  Engine.Runner.run_while exec ~max_interactions:max_int (fun () -> true);
  check_int "no event" 0 (Engine.Exec.events exec);
  Alcotest.(check (option bool)) "silent" (Some true) (Engine.Exec.silent exec)

(* ------------------------------------------------------------------ *)
(* Count executor through the Runner: full outcome records, and the
   exact-silence oracle agreeing with confirmation-window semantics.  *)

let test_count_executor_full_outcome () =
  let n = 32 in
  let exec =
    silent_exec ~kind:Engine.Exec.Count ~n ~seed:74 ~init:(fun rng ->
        Core.Scenarios.silent_uniform rng ~n)
  in
  let o =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
      ~max_interactions:(100 * n * n * n)
      ~confirm_interactions:(Engine.Runner.default_confirm ~n) exec
  in
  check_bool "converged" true o.Engine.Runner.converged;
  check_bool "positive time" true (o.Engine.Runner.convergence_time > 0.0);
  check_int "no violations from a clean run" 0 o.Engine.Runner.violations;
  check_bool "oracle stopped before the horizon" true
    (o.Engine.Runner.total_interactions < 100 * n * n * n)

let test_oracle_matches_confirmation_window () =
  (* With the exact oracle disabled, the Runner falls back to the
     confirmation-window rule; for a silent protocol both must find
     the same convergence point on the same seed. *)
  let n = 16 in
  for seed = 80 to 89 do
    let run ~silence_oracle =
      let exec =
        silent_exec ~kind:Engine.Exec.Count ~n ~seed ~init:(fun rng ->
            Core.Scenarios.silent_uniform rng ~n)
      in
      Engine.Runner.run_to_stability ~silence_oracle ~task:Engine.Runner.Ranking
        ~max_interactions:(100 * n * n * n)
        ~confirm_interactions:(Engine.Runner.default_confirm ~n) exec
    in
    let fast = run ~silence_oracle:true in
    let slow = run ~silence_oracle:false in
    check_bool "oracle run converged" true fast.Engine.Runner.converged;
    check_bool "window run converged" true slow.Engine.Runner.converged;
    check_int
      (Printf.sprintf "same convergence point (seed %d)" seed)
      fast.Engine.Runner.convergence_interactions slow.Engine.Runner.convergence_interactions
  done

let test_runner_distribution_agrees_across_engines () =
  (* The tentpole differential test: Runner-measured convergence times
     on Silent-n-state-SSR must agree in distribution between the two
     executors (two-sample Kolmogorov-Smirnov at alpha = 0.01). *)
  let n = 10 in
  let trials = 250 in
  let times ~kind ~seed0 =
    Array.init trials (fun k ->
        let exec =
          silent_exec ~kind ~n ~seed:(seed0 + k) ~init:(fun rng ->
              Core.Scenarios.silent_uniform rng ~n)
        in
        let o =
          Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
            ~max_interactions:(100 * n * n * n)
            ~confirm_interactions:(Engine.Runner.default_confirm ~n) exec
        in
        o.Engine.Runner.convergence_time)
  in
  let agent = times ~kind:Engine.Exec.Agent ~seed0:60_000 in
  let count = times ~kind:Engine.Exec.Count ~seed0:70_000 in
  check_bool "same law across executors (KS, alpha=0.01)" true
    (Stats.Ks.same_distribution agent count)

(* ------------------------------------------------------------------ *)
(* Fault injection through the executor interface.                    *)

let test_count_inject_and_recover () =
  let n = 24 in
  let exec =
    silent_exec ~kind:Engine.Exec.Count ~n ~seed:75 ~init:(fun _ ->
        Core.Scenarios.silent_correct ~n)
  in
  check_bool "starts silent" true (Engine.Exec.silent exec = Some true);
  Engine.Exec.inject exec 0 (Core.Silent_n_state.state_of_rank0 ~n (n - 1));
  check_bool "fault breaks silence" true (Engine.Exec.silent exec = Some false);
  check_bool "fault breaks correctness" false (Engine.Exec.ranking_correct exec);
  let o =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
      ~max_interactions:(100 * n * n * n)
      ~confirm_interactions:(Engine.Runner.default_confirm ~n) exec
  in
  check_bool "recovers" true o.Engine.Runner.converged;
  check_bool "silent again" true (Engine.Exec.silent exec = Some true)

let test_count_corrupt_matches_agent_semantics () =
  (* corrupt must hit round(fraction * n) agents (at least one for any
     positive fraction), mirroring Sim.corrupt. *)
  let n = 40 in
  let exec =
    silent_exec ~kind:Engine.Exec.Count ~n ~seed:76 ~init:(fun _ ->
        Core.Scenarios.silent_correct ~n)
  in
  let hit =
    Engine.Exec.corrupt exec ~rng:(Prng.create ~seed:77) ~fraction:0.25 (fun rng ->
        Core.Silent_n_state.state_of_rank0 ~n (Prng.int rng n))
  in
  check_int "a quarter of the population" (n / 4) hit;
  let tiny =
    Engine.Exec.corrupt exec ~rng:(Prng.create ~seed:78) ~fraction:0.001 (fun rng ->
        Core.Silent_n_state.state_of_rank0 ~n (Prng.int rng n))
  in
  check_int "positive fraction hits at least one agent" 1 tiny

let test_fault_injection_validates_arguments () =
  (* Both engines must reject malformed fault-injection arguments with
     Invalid_argument instead of corrupting internal state: an index
     outside [0, n) for inject, a fraction outside [0,1] (or NaN) for
     corrupt. *)
  List.iter
    (fun kind ->
      let label what = Printf.sprintf "%s (%s engine)" what (Engine.Exec.kind_to_string kind) in
      let n = 8 in
      let exec =
        silent_exec ~kind ~n ~seed:90 ~init:(fun _ -> Core.Scenarios.silent_correct ~n)
      in
      let state = Core.Silent_n_state.state_of_rank0 ~n 0 in
      let gen rng = Core.Silent_n_state.state_of_rank0 ~n (Prng.int rng n) in
      let raises what f =
        match f () with
        | exception Invalid_argument _ -> ()
        | _ -> Alcotest.fail (label what ^ ": expected Invalid_argument")
      in
      raises "inject negative index" (fun () -> Engine.Exec.inject exec (-1) state);
      raises "inject index at n" (fun () -> Engine.Exec.inject exec n state);
      raises "corrupt fraction < 0" (fun () ->
          ignore (Engine.Exec.corrupt exec ~rng:(Prng.create ~seed:91) ~fraction:(-0.1) gen));
      raises "corrupt fraction > 1" (fun () ->
          ignore (Engine.Exec.corrupt exec ~rng:(Prng.create ~seed:92) ~fraction:1.5 gen));
      raises "corrupt fraction NaN" (fun () ->
          ignore (Engine.Exec.corrupt exec ~rng:(Prng.create ~seed:93) ~fraction:Float.nan gen));
      (* The exec is untouched by the rejected calls: still correct and,
         where the oracle exists, still silent. *)
      check_bool (label "still correct after rejections") true
        (Engine.Exec.ranking_correct exec))
    [ Engine.Exec.Agent; Engine.Exec.Count ]

let test_count_snapshot_multiset_preserved () =
  (* snapshot/state expose an agent view of the multiset: ranks are a
     permutation-invariant of the configuration. *)
  let n = 12 in
  let exec =
    silent_exec ~kind:Engine.Exec.Count ~n ~seed:79 ~init:(fun _ ->
        Core.Scenarios.silent_correct ~n)
  in
  let snapshot = Engine.Exec.snapshot exec in
  check_int "snapshot covers the population" n (Array.length snapshot);
  let ranks =
    Array.to_list snapshot
    |> List.map (fun s -> (s : Core.Silent_n_state.state :> int))
    |> List.sort compare
  in
  Alcotest.(check (list int)) "all ranks present" (List.init n (fun i -> i)) ranks;
  check_bool "state agrees with snapshot" true
    (Engine.Exec.state exec 0 = snapshot.(0))

(* ------------------------------------------------------------------ *)
(* The Instrument event layer.                                        *)

let test_events_fire_on_count_engine () =
  let n = 16 in
  let exec =
    silent_exec ~kind:Engine.Exec.Count ~n ~seed:81 ~init:(fun _ ->
        Core.Scenarios.silent_worst_case ~n)
  in
  let steps = ref 0 and silences = ref 0 and faults = ref 0 in
  Engine.Exec.on exec (fun event ->
      match event with
      | Engine.Instrument.Step _ -> incr steps
      | Engine.Instrument.Silence _ -> incr silences
      | Engine.Instrument.Fault _ -> incr faults
      | Engine.Instrument.Correct_entered _ | Engine.Instrument.Correct_lost _ -> ());
  let o =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
      ~max_interactions:(100 * n * n * n)
      ~confirm_interactions:(Engine.Runner.default_confirm ~n) exec
  in
  check_bool "converged" true o.Engine.Runner.converged;
  check_int "worst case: one step per productive event" (n - 1) !steps;
  check_int "silence announced once" 1 !silences;
  check_int "no faults injected" 0 !faults;
  Engine.Exec.inject exec 0 (Core.Silent_n_state.state_of_rank0 ~n (n - 1));
  check_int "injection emits a fault event" 1 !faults

let test_policy_events_from_runner () =
  (* The Runner publishes correctness transitions as events. Starting
     from a correct configuration, entry is observed immediately. *)
  let n = 8 in
  let exec =
    silent_exec ~kind:Engine.Exec.Agent ~n ~seed:82 ~init:(fun _ ->
        Core.Scenarios.silent_correct ~n)
  in
  let entered = ref [] and lost = ref 0 in
  Engine.Exec.on exec (fun event ->
      match event with
      | Engine.Instrument.Correct_entered { interactions; _ } ->
          entered := interactions :: !entered
      | Engine.Instrument.Correct_lost _ -> incr lost
      | _ -> ());
  let o =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
      ~max_interactions:(100 * n * n * n)
      ~confirm_interactions:(Engine.Runner.default_confirm ~n) exec
  in
  check_bool "converged" true o.Engine.Runner.converged;
  Alcotest.(check (list int)) "entered once, at time zero" [ 0 ] !entered;
  check_int "never lost" 0 !lost

let test_collector_sampling () =
  let c = Engine.Instrument.collector ~interval:10 () in
  let handler = Engine.Instrument.sampled c (fun () -> !(ref 42)) in
  for i = 0 to 24 do
    handler (Engine.Instrument.Step { interactions = i; time = float_of_int i })
  done;
  (* samples at interactions 0, 10, 20 — every [interval] interactions *)
  check_int "interval sampling" 3 (List.length (Engine.Instrument.series c));
  handler (Engine.Instrument.Fault { interactions = 25; time = 25.0; agents = 1 });
  check_int "faults always sampled" 4 (List.length (Engine.Instrument.series c));
  List.iter
    (fun (_, v) -> check_int "metric evaluated" 42 v)
    (Engine.Instrument.series c);
  Alcotest.check_raises "interval must be positive"
    (Invalid_argument "Instrument.collector: interval must be positive") (fun () ->
      ignore (Engine.Instrument.collector ~interval:0 ()))

let test_event_accessors () =
  let step = Engine.Instrument.Step { interactions = 7; time = 3.5 } in
  let fault = Engine.Instrument.Fault { interactions = 9; time = 4.5; agents = 2 } in
  check_int "step interactions" 7 (Engine.Instrument.interactions step);
  check_int "fault interactions" 9 (Engine.Instrument.interactions fault);
  Alcotest.(check (float 1e-12)) "step time" 3.5 (Engine.Instrument.time step);
  check_bool "pp mentions the kind" true
    (let s = Format.asprintf "%a" Engine.Instrument.pp fault in
     String.length s > 0)

let test_kind_to_string () =
  Alcotest.(check string) "agent" "agent" (Engine.Exec.kind_to_string Engine.Exec.Agent);
  Alcotest.(check string) "count" "count" (Engine.Exec.kind_to_string Engine.Exec.Count)

let suite =
  [
    Alcotest.test_case "unconverged reports horizon" `Quick test_unconverged_reports_horizon;
    Alcotest.test_case "unconverged mid-window reports entry" `Quick
      test_unconverged_mid_window_reports_entry;
    Alcotest.test_case "converged reports entry" `Quick test_converged_reports_entry;
    Alcotest.test_case "run_while matches k steps" `Quick test_run_while_matches_steps;
    Alcotest.test_case "run_while false predicate" `Quick test_run_while_false_predicate;
    Alcotest.test_case "run_while count bound" `Quick test_run_while_count_bound;
    Alcotest.test_case "run_while silent returns" `Quick test_run_while_silent_returns;
    Alcotest.test_case "count executor full outcome" `Quick test_count_executor_full_outcome;
    Alcotest.test_case "oracle matches confirmation window" `Slow
      test_oracle_matches_confirmation_window;
    Alcotest.test_case "runner distribution agrees across engines" `Slow
      test_runner_distribution_agrees_across_engines;
    Alcotest.test_case "count inject and recover" `Quick test_count_inject_and_recover;
    Alcotest.test_case "count corrupt semantics" `Quick test_count_corrupt_matches_agent_semantics;
    Alcotest.test_case "fault injection validates arguments" `Quick
      test_fault_injection_validates_arguments;
    Alcotest.test_case "count snapshot multiset" `Quick test_count_snapshot_multiset_preserved;
    Alcotest.test_case "events fire on count engine" `Quick test_events_fire_on_count_engine;
    Alcotest.test_case "policy events from runner" `Quick test_policy_events_from_runner;
    Alcotest.test_case "collector sampling" `Quick test_collector_sampling;
    Alcotest.test_case "event accessors" `Quick test_event_accessors;
    Alcotest.test_case "kind to string" `Quick test_kind_to_string;
  ]
