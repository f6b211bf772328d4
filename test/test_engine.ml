(* Tests for the simulation engine: protocol records, monitors, the
   stepping simulator, convergence policies, silence checking, and the
   Instrument event collectors. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let steps sim k = for _ = 1 to k do Engine.Sim.step sim done

(* A toy deterministic protocol over int states for engine testing: agents
   hold ranks directly; no transition logic unless stated. *)
let toy_protocol ?(transition = fun _rng a b -> (a, b)) ?(deterministic = true) n :
    int Engine.Protocol.t =
  let rank s = if s >= 1 && s <= n then Some s else None in
  {
    Engine.Protocol.name = "toy";
    n;
    transition;
    deterministic;
    equal = Int.equal;
    pp = Format.pp_print_int;
    rank;
    is_leader = Engine.Protocol.leader_from_rank rank;
  }

(* Protocol tests *)

let test_validate () =
  Alcotest.check_raises "n too small"
    (Invalid_argument "Protocol.validate: population size must be >= 2") (fun () ->
      Engine.Protocol.validate (toy_protocol 1))

let test_leader_from_rank () =
  let rank = function 1 -> Some 1 | _ -> None in
  check_bool "rank 1 leads" true (Engine.Protocol.leader_from_rank rank 1);
  check_bool "others do not" false (Engine.Protocol.leader_from_rank rank 2)

(* Monitor tests *)

let test_monitor_initial_correct () =
  let p = toy_protocol 4 in
  let m = Engine.Monitor.create p [| 1; 2; 3; 4 |] in
  check_bool "permutation correct" true (Engine.Monitor.ranking_correct m);
  check_bool "one leader" true (Engine.Monitor.leader_correct m);
  check_int "ranked" 4 (Engine.Monitor.ranked_agents m)

let test_monitor_initial_incorrect () =
  let p = toy_protocol 4 in
  let m = Engine.Monitor.create p [| 1; 2; 2; 4 |] in
  check_bool "duplicate not correct" false (Engine.Monitor.ranking_correct m);
  (* ranks 1 and 4 are singletons; rank 2 is duplicated *)
  check_int "singletons" 2 (Engine.Monitor.distinct_singleton_ranks m)

let test_monitor_update_to_correct () =
  let p = toy_protocol 3 in
  let m = Engine.Monitor.create p [| 1; 1; 3 |] in
  check_bool "incorrect" false (Engine.Monitor.ranking_correct m);
  Engine.Monitor.update m ~old_state:1 ~new_state:2;
  check_bool "correct after fix" true (Engine.Monitor.ranking_correct m)

let test_monitor_leader_count () =
  let p = toy_protocol 3 in
  let m = Engine.Monitor.create p [| 1; 1; 2 |] in
  check_int "two leaders" 2 (Engine.Monitor.leader_count m);
  Engine.Monitor.update m ~old_state:1 ~new_state:3;
  check_int "one leader" 1 (Engine.Monitor.leader_count m);
  check_bool "leader correct" true (Engine.Monitor.leader_correct m)

let test_monitor_out_of_range () =
  let p = toy_protocol 3 in
  let m = Engine.Monitor.create p [| 99; 2; 3 |] in
  check_bool "not correct with stray rank" false (Engine.Monitor.ranking_correct m);
  check_int "ranked ignores out of range" 2 (Engine.Monitor.ranked_agents m);
  (* removing the stray state must not underflow *)
  Engine.Monitor.update m ~old_state:99 ~new_state:1;
  check_bool "now correct" true (Engine.Monitor.ranking_correct m)

let qcheck_monitor_matches_recompute =
  QCheck.Test.make ~name:"monitor matches full recompute under random injections" ~count:100
    QCheck.(pair small_int (list (pair (int_bound 7) (int_bound 9))))
    (fun (seed, updates) ->
      let n = 8 in
      let p = toy_protocol n in
      let rng = Prng.create ~seed in
      let config = Array.init n (fun _ -> 1 + Prng.int rng (n + 2)) in
      let m = Engine.Monitor.create p config in
      List.iter
        (fun (agent, value) ->
          let agent = agent mod n in
          let value = value + 1 in
          Engine.Monitor.update m ~old_state:config.(agent) ~new_state:value;
          config.(agent) <- value)
        updates;
      let recompute = Engine.Monitor.create p config in
      Engine.Monitor.ranking_correct m = Engine.Monitor.ranking_correct recompute
      && Engine.Monitor.leader_count m = Engine.Monitor.leader_count recompute
      && Engine.Monitor.ranked_agents m = Engine.Monitor.ranked_agents recompute)

(* Interner tests *)

(* The interner against a linear [equal] scan over the keys it was given,
   from an empty table through several regrowths. Besides a real hash,
   two degenerate ones: a constant that makes every key collide on the
   last slot (so every probe run wraps around), and one with four long
   collision runs. [equal] must only ever see entries whose stored hash
   matches the probe's. *)
let qcheck_interner_matches_scan =
  QCheck.Test.make ~name:"interner matches a linear equal scan" ~count:200
    QCheck.(pair (int_bound 2) (list_of_size Gen.(0 -- 800) (int_bound 300)))
    (fun (mode, keys) ->
      let hash k =
        match mode with 0 -> Hashtbl.hash k | 1 -> 0x3FFF_FFFF | _ -> k land 3
      in
      let t = Engine.Interner.create 0 in
      let stored = ref [||] in
      let ok = ref true in
      let equal stored k i =
        if hash !stored.(i) <> hash k then ok := false;
        !stored.(i) = k
      in
      List.iter
        (fun k ->
          let scan = ref (-1) in
          Array.iteri (fun i s -> if !scan < 0 && s = k then scan := i) !stored;
          let id = Engine.Interner.find t (hash k) equal stored k in
          if id <> !scan then ok := false;
          if id < 0 then begin
            Engine.Interner.add t (hash k) (Array.length !stored);
            stored := Array.append !stored [| k |]
          end)
        keys;
      !ok)

(* Sim tests *)

let test_sim_counts () =
  let p = toy_protocol 4 in
  let sim = Engine.Sim.make ~protocol:p ~init:[| 1; 2; 3; 4 |] ~rng:(Prng.create ~seed:1) in
  check_int "no interactions yet" 0 (Engine.Sim.interactions sim);
  steps sim 10;
  check_int "ten interactions" 10 (Engine.Sim.interactions sim);
  Alcotest.(check (float 1e-9)) "parallel time" 2.5 (Engine.Sim.parallel_time sim)

let test_sim_init_copied () =
  let p = toy_protocol 2 in
  let init = [| 1; 2 |] in
  let sim = Engine.Sim.make ~protocol:p ~init ~rng:(Prng.create ~seed:1) in
  init.(0) <- 99;
  check_int "sim kept its own copy" 1 (Engine.Sim.state sim 0)

let test_sim_snapshot_isolated () =
  let p = toy_protocol 2 in
  let sim = Engine.Sim.make ~protocol:p ~init:[| 1; 2 |] ~rng:(Prng.create ~seed:1) in
  let snap = Engine.Sim.snapshot sim in
  snap.(0) <- 42;
  check_int "snapshot does not alias" 1 (Engine.Sim.state sim 0)

let test_sim_step_applies_transition () =
  (* Transition that always sets both agents to 7. *)
  let p = toy_protocol ~transition:(fun _ _ _ -> (7, 7)) 3 in
  let sim = Engine.Sim.make ~protocol:p ~init:[| 1; 2; 3 |] ~rng:(Prng.create ~seed:2) in
  Engine.Sim.step sim;
  let sevens = Array.fold_left (fun acc s -> if s = 7 then acc + 1 else acc) 0 (Engine.Sim.snapshot sim) in
  check_int "exactly two agents changed" 2 sevens;
  match Engine.Sim.last_pair sim with
  | Some (i, j) ->
      check_bool "pair distinct" true (i <> j);
      check_int "initiator updated" 7 (Engine.Sim.state sim i);
      check_int "responder updated" 7 (Engine.Sim.state sim j)
  | None -> Alcotest.fail "last_pair missing"

let test_sim_determinism () =
  let p = toy_protocol ~transition:(fun rng a b -> if Prng.bool rng then (a + 1, b) else (a, b + 1))
      ~deterministic:false 5
  in
  let run seed =
    let sim = Engine.Sim.make ~protocol:p ~init:[| 1; 2; 3; 4; 5 |] ~rng:(Prng.create ~seed) in
    steps sim 200;
    Engine.Sim.snapshot sim
  in
  Alcotest.(check (array int)) "same seed same trajectory" (run 11) (run 11);
  check_bool "different seed diverges" true (run 11 <> run 12)

let test_sim_inject () =
  let p = toy_protocol 3 in
  let sim = Engine.Sim.make ~protocol:p ~init:[| 1; 2; 3 |] ~rng:(Prng.create ~seed:3) in
  check_bool "starts correct" true (Engine.Sim.ranking_correct sim);
  Engine.Sim.inject sim 0 2;
  check_bool "fault breaks ranking" false (Engine.Sim.ranking_correct sim);
  Engine.Sim.inject sim 0 1;
  check_bool "repair restores" true (Engine.Sim.ranking_correct sim)

let test_sim_corrupt () =
  let p = toy_protocol 10 in
  let sim =
    Engine.Sim.make ~protocol:p ~init:(Array.init 10 (fun i -> i + 1)) ~rng:(Prng.create ~seed:4)
  in
  let rng = Prng.create ~seed:5 in
  check_int "zero fraction" 0 (Engine.Sim.corrupt sim ~rng ~fraction:0.0 (fun _ -> 1));
  check_int "half rounds to 5" 5 (Engine.Sim.corrupt sim ~rng ~fraction:0.5 (fun _ -> 1));
  check_bool "corruption broke ranking" false (Engine.Sim.ranking_correct sim);
  Alcotest.check_raises "bad fraction" (Invalid_argument "Sim.corrupt: fraction outside [0,1]")
    (fun () -> ignore (Engine.Sim.corrupt sim ~rng ~fraction:1.5 (fun _ -> 1)))

let test_sim_size_mismatch () =
  let p = toy_protocol 3 in
  Alcotest.check_raises "size mismatch"
    (Invalid_argument "Sim.make: initial configuration size differs from protocol.n") (fun () ->
      ignore (Engine.Sim.make ~protocol:p ~init:[| 1 |] ~rng:(Prng.create ~seed:1)))

(* Runner tests *)

let test_runner_already_correct () =
  let p = toy_protocol 4 in
  let sim = Engine.Sim.make ~protocol:p ~init:[| 1; 2; 3; 4 |] ~rng:(Prng.create ~seed:1) in
  let o =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking ~max_interactions:10_000
      ~confirm_interactions:100 (Engine.Exec.of_sim sim)
  in
  check_bool "converged" true o.Engine.Runner.converged;
  check_int "time zero" 0 o.Engine.Runner.convergence_interactions;
  check_int "confirm window simulated" 100 o.Engine.Runner.total_interactions

let test_runner_baseline_leader () =
  let n = 32 in
  let p = Core.Baseline.protocol ~n in
  let sim =
    Engine.Sim.make ~protocol:p ~init:(Core.Baseline.all_leaders ~n) ~rng:(Prng.create ~seed:2)
  in
  let o =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Leader ~max_interactions:1_000_000
      ~confirm_interactions:(Engine.Runner.default_confirm ~n)
      (Engine.Exec.of_sim sim)
  in
  check_bool "elects a leader" true o.Engine.Runner.converged;
  check_bool "positive time" true (o.Engine.Runner.convergence_time > 0.0);
  check_int "no violations" 0 o.Engine.Runner.violations

let test_runner_never_correct () =
  let n = 8 in
  let p = Core.Baseline.protocol ~n in
  let sim =
    Engine.Sim.make ~protocol:p ~init:(Core.Baseline.all_followers ~n) ~rng:(Prng.create ~seed:3)
  in
  let o =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Leader ~max_interactions:5_000
      ~confirm_interactions:100 (Engine.Exec.of_sim sim)
  in
  check_bool "cannot converge from all followers" false o.Engine.Runner.converged;
  check_int "horizon exhausted" 5_000 o.Engine.Runner.total_interactions

let test_runner_violation_counting () =
  (* Subscribe a Step handler that injects a fault right after the run
     first becomes correct, and verify the violation is counted and
     recovery re-times. *)
  let n = 4 in
  let p = Core.Silent_n_state.protocol ~n in
  let init = Array.map (Core.Silent_n_state.state_of_rank0 ~n) [| 0; 0; 2; 3 |] in
  let exec =
    Engine.Exec.of_sim (Engine.Sim.make ~protocol:p ~init ~rng:(Prng.create ~seed:9))
  in
  let injected = ref false in
  let seen_correct = ref false in
  (* Step handlers run inside advance, before the runner's correctness
     check, so inject one step after correctness was first observed: the
     runner has then already entered the correct phase and must count the
     loss. *)
  Engine.Exec.on exec (fun event ->
      match event with
      | Engine.Instrument.Step _ ->
          if (not !injected) && Engine.Exec.ranking_correct exec then begin
            if !seen_correct then begin
              injected := true;
              (* duplicate agent 1's state onto agent 0: guaranteed violation *)
              Engine.Exec.inject exec 0 (Engine.Exec.state exec 1)
            end
            else seen_correct := true
          end
      | _ -> ());
  let o =
    Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking ~max_interactions:200_000
      ~confirm_interactions:500 exec
  in
  check_bool "eventually stable" true o.Engine.Runner.converged;
  check_bool "violation recorded" true (o.Engine.Runner.violations >= 1)

let test_default_confirm_monotone () =
  check_bool "confirm grows with n" true
    (Engine.Runner.default_confirm ~n:64 > Engine.Runner.default_confirm ~n:8);
  check_bool "horizon covers expectation" true
    (Engine.Runner.default_horizon ~n:16 ~expected_time:100.0 >= 16 * 100 * 20);
  (* silent's expected time n^2 puts 20·n^3 past max_int from n = 614,000:
     the budget saturates instead of wrapping *)
  let horizon n = Engine.Runner.default_horizon ~n ~expected_time:(float_of_int (n * n)) in
  check_bool "horizon does not decrease past overflow" true
    (horizon 614_000 >= horizon 613_000);
  check_int "horizon saturates" max_int (horizon 614_000)

(* Silence tests *)

let test_silence_detects () =
  let n = 4 in
  let p = Core.Baseline.protocol ~n in
  let l = Core.Baseline.Leader and f = Core.Baseline.Follower in
  check_bool "all followers silent" true
    (Engine.Silence.configuration_is_silent p (Core.Baseline.all_followers ~n));
  check_bool "two leaders not silent" false
    (Engine.Silence.configuration_is_silent p [| l; l; f; f |]);
  check_bool "single leader silent" true
    (Engine.Silence.configuration_is_silent p [| l; f; f; f |])

let test_silence_randomized_rejected () =
  let p = toy_protocol ~deterministic:false 2 in
  Alcotest.check_raises "randomized rejected"
    (Invalid_argument "Silence.configuration_is_silent: protocol is randomized") (fun () ->
      ignore (Engine.Silence.configuration_is_silent p [| 1; 2 |]))

let test_distinct_states () =
  let d = Engine.Silence.distinct_states Int.equal [| 1; 2; 1; 3; 2; 1 |] in
  Alcotest.(check (list (pair int int))) "counts" [ (1, 3); (2, 2); (3, 1) ] d

(* Instrument collector tests (Trace's successor; the collector subscribes
   to the executor event stream instead of hooking Sim manually) *)

let test_collector_sampling () =
  let p = toy_protocol 4 in
  let sim = Engine.Sim.make ~protocol:p ~init:[| 1; 2; 3; 4 |] ~rng:(Prng.create ~seed:1) in
  let exec = Engine.Exec.of_sim sim in
  let c = Engine.Instrument.collector ~interval:5 () in
  Engine.Exec.on exec (Engine.Instrument.sampled c (fun () -> Engine.Exec.interactions exec));
  for _ = 1 to 20 do
    ignore (Engine.Exec.advance exec ~until:max_int)
  done;
  let series = Engine.Instrument.series c in
  check_int "sampled every 5 interactions" 4 (List.length series);
  let times = List.map fst series in
  check_bool "times increasing" true (List.sort compare times = times)

let test_collector_interval_one () =
  (* interval = 1 degenerates to sampling every single step *)
  let p = toy_protocol 4 in
  let sim = Engine.Sim.make ~protocol:p ~init:[| 1; 2; 3; 4 |] ~rng:(Prng.create ~seed:1) in
  let exec = Engine.Exec.of_sim sim in
  let c = Engine.Instrument.collector ~interval:1 () in
  Engine.Exec.on exec (Engine.Instrument.sampled c (fun () -> Engine.Exec.interactions exec));
  for _ = 1 to 7 do
    ignore (Engine.Exec.advance exec ~until:max_int)
  done;
  check_int "one sample per step" 7 (List.length (Engine.Instrument.series c));
  check_bool "values are 1..7" true
    (List.map snd (Engine.Instrument.series c) = [ 1; 2; 3; 4; 5; 6; 7 ])

let test_collector_fault_force_record () =
  (* A fault forces a sample even mid-interval, and the forced sample lands
     in series order relative to the interval samples around it. *)
  let p = toy_protocol 4 in
  let sim = Engine.Sim.make ~protocol:p ~init:[| 1; 2; 3; 4 |] ~rng:(Prng.create ~seed:1) in
  let exec = Engine.Exec.of_sim sim in
  let c = Engine.Instrument.collector ~interval:1000 () in
  Engine.Exec.on exec (Engine.Instrument.sampled c (fun () -> Engine.Exec.interactions exec));
  ignore (Engine.Exec.advance exec ~until:max_int);
  (* interaction 1: first Step samples (next_at starts at 0) *)
  ignore (Engine.Exec.advance exec ~until:max_int);
  (* interaction 2: inside the interval, no sample *)
  Engine.Exec.inject exec 0 9;
  (* Fault: forced sample at interaction 2 *)
  ignore (Engine.Exec.advance exec ~until:max_int);
  let series = Engine.Instrument.series c in
  check_int "interval sample + forced fault sample" 2 (List.length series);
  check_bool "forced sample recorded after the interval sample" true
    (List.map snd series = [ 1; 2 ]);
  let times = List.map fst series in
  check_bool "series stays chronological" true (List.sort compare times = times)

let test_collector_empty_series () =
  (* No events at all: the series is empty, not a phantom initial sample. *)
  let c : int Engine.Instrument.collector = Engine.Instrument.collector ~interval:10 () in
  check_int "empty series" 0 (List.length (Engine.Instrument.series c));
  (* Non-Step, non-Fault events never sample either. *)
  Engine.Instrument.sampled c
    (fun () -> Alcotest.fail "metric must not be called")
    (Engine.Instrument.Silence { interactions = 5; time = 1.0 });
  Engine.Instrument.sampled c
    (fun () -> Alcotest.fail "metric must not be called")
    (Engine.Instrument.Correct_entered { interactions = 5; time = 1.0 });
  check_int "still empty" 0 (List.length (Engine.Instrument.series c))

let test_collector_bad_interval () =
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Instrument.collector: interval must be positive") (fun () ->
      ignore (Engine.Instrument.collector ~interval:0 ()))

let suite =
  [
    Alcotest.test_case "protocol validate" `Quick test_validate;
    Alcotest.test_case "leader from rank" `Quick test_leader_from_rank;
    Alcotest.test_case "monitor initial correct" `Quick test_monitor_initial_correct;
    Alcotest.test_case "monitor initial incorrect" `Quick test_monitor_initial_incorrect;
    Alcotest.test_case "monitor update" `Quick test_monitor_update_to_correct;
    Alcotest.test_case "monitor leader count" `Quick test_monitor_leader_count;
    Alcotest.test_case "monitor out-of-range ranks" `Quick test_monitor_out_of_range;
    QCheck_alcotest.to_alcotest qcheck_monitor_matches_recompute;
    QCheck_alcotest.to_alcotest qcheck_interner_matches_scan;
    Alcotest.test_case "sim counts" `Quick test_sim_counts;
    Alcotest.test_case "sim copies init" `Quick test_sim_init_copied;
    Alcotest.test_case "sim snapshot isolated" `Quick test_sim_snapshot_isolated;
    Alcotest.test_case "sim applies transition" `Quick test_sim_step_applies_transition;
    Alcotest.test_case "sim determinism" `Quick test_sim_determinism;
    Alcotest.test_case "sim inject" `Quick test_sim_inject;
    Alcotest.test_case "sim corrupt" `Quick test_sim_corrupt;
    Alcotest.test_case "sim size mismatch" `Quick test_sim_size_mismatch;
    Alcotest.test_case "runner already correct" `Quick test_runner_already_correct;
    Alcotest.test_case "runner baseline leader election" `Quick test_runner_baseline_leader;
    Alcotest.test_case "runner never correct" `Quick test_runner_never_correct;
    Alcotest.test_case "runner violation counting" `Quick test_runner_violation_counting;
    Alcotest.test_case "runner defaults" `Quick test_default_confirm_monotone;
    Alcotest.test_case "silence detection" `Quick test_silence_detects;
    Alcotest.test_case "silence rejects randomized" `Quick test_silence_randomized_rejected;
    Alcotest.test_case "distinct states" `Quick test_distinct_states;
    Alcotest.test_case "collector sampling" `Quick test_collector_sampling;
    Alcotest.test_case "collector interval one" `Quick test_collector_interval_one;
    Alcotest.test_case "collector fault force-record" `Quick test_collector_fault_force_record;
    Alcotest.test_case "collector empty series" `Quick test_collector_empty_series;
    Alcotest.test_case "collector bad interval" `Quick test_collector_bad_interval;
  ]
