(* Tests for the exact oracle: expected stabilization times solved on the
   weighted configuration chain of Analysis.Model_check. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let feq tol = Alcotest.(check (float tol))

(* Chain analysis of Silent-n-state-SSR *)

let binomial n k =
  let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
  go 1 1

module Chain = Analysis.Model_check

let chain e = Engine.Pool.with_pool ~jobs:1 (fun pool -> Chain.chain ~pool e)

let analysis n = chain (Core.Silent_n_state.enumerable ~n)

let test_chain_config_counts () =
  List.iter
    (fun n ->
      let a = analysis n in
      check_int
        (Printf.sprintf "C(2n-1, n-1) configurations at n=%d" n)
        (binomial ((2 * n) - 1) (n - 1))
        (Chain.configurations a))
    [ 3; 4; 5 ]

let test_chain_model_checks_self_stabilization () =
  List.iter
    (fun n ->
      let a = analysis n in
      check_int "unique absorbing configuration" 1 (Chain.absorbing a);
      check_bool "the silent configuration is correct" true (Chain.all_absorbing_correct a))
    [ 3; 4; 5; 6 ]

let test_chain_correct_config_time_zero () =
  let n = 4 in
  let a = analysis n in
  feq 1e-12 "already stable" 0.0 (Chain.expected_time a (Core.Scenarios.silent_correct ~n))

let test_chain_worst_witness () =
  let n = 5 in
  let a = analysis n in
  let worst, witness = Chain.worst_expected_time a in
  check_int "witness is a configuration" n (Array.length witness);
  check_bool "worst positive" true (worst > 0.0);
  feq 1e-9 "witness attains the worst value" worst (Chain.expected_time a witness);
  check_bool "mean below worst" true (Chain.mean_expected_time a < worst)

(* Silent-n-state is rotation-symmetric, so the n "all agents in state k"
   configurations tie exactly; the witness is the first of them in
   enumeration order, whatever the solve's last bits say. *)
let test_chain_worst_witness_all_zero () =
  List.iter
    (fun n ->
      let _, witness = Chain.worst_expected_time (analysis n) in
      check_bool
        (Printf.sprintf "witness is all-zero at n=%d" n)
        true
        (witness = Core.Scenarios.silent_all_zero ~n))
    [ 3; 4; 5; 6 ]

(* The dense solve's values, pinned so that any rewrite of the chain
   reproduces them: worst and mean expected parallel times, the
   configuration and absorbing counts at n = 3..6, and the five n = 5
   starting configurations of the engine comparison below. *)
let test_chain_pinned_values () =
  List.iter
    (fun (n, configs, worst, mean) ->
      let a = analysis n in
      let label what = Printf.sprintf "%s at n=%d" what n in
      check_int (label "configurations") configs (Chain.configurations a);
      check_int (label "absorbing") 1 (Chain.absorbing a);
      feq 1e-9 (label "worst") worst (fst (Chain.worst_expected_time a));
      feq 1e-9 (label "mean") mean (Chain.mean_expected_time a))
    [
      (3, 10, 2.333333333333333, 1.5999999999999996);
      (4, 35, 5.5000000000000009, 3.9000000000000008);
      (5, 126, 9.9239583333333385, 7.2245783730158752);
      (6, 462, 15.548130580357158, 11.559576125372024);
    ]

let test_chain_pinned_configurations () =
  let n = 5 in
  let a = analysis n in
  List.iter
    (fun (ranks, expected) ->
      let init = Array.map (Core.Silent_n_state.state_of_rank0 ~n) ranks in
      feq 1e-9 "expected time" expected (Chain.expected_time a init))
    [
      ([| 0; 0; 0; 0; 0 |], 9.923958333333335);
      ([| 0; 0; 1; 2; 3 |], 8.0000000000000018);
      ([| 0; 0; 2; 2; 4 |], 2.9999999999999991);
      ([| 4; 4; 4; 4; 4 |], 9.923958333333335);
      ([| 0; 1; 2; 3; 4 |], 0.0);
    ]

(* Count-engine parallel time to provable silence. *)
let time_to_silence ~protocol ~init ~rng =
  let exec = Engine.Exec.make ~kind:Engine.Exec.Count ~protocol ~init ~rng () in
  Engine.Runner.run_while exec ~max_interactions:max_int (fun () ->
      Engine.Exec.silent exec <> Some true);
  Engine.Exec.parallel_time exec

let test_chain_matches_simulation () =
  let n = 4 in
  let protocol = Core.Silent_n_state.protocol ~n in
  let a = analysis n in
  let init = Core.Scenarios.silent_worst_case ~n in
  let exact = Chain.expected_time a init in
  let trials = 4000 in
  let root = Prng.create ~seed:31 in
  let acc = ref 0.0 in
  for _ = 1 to trials do
    let rng = Prng.split root in
    acc := !acc +. time_to_silence ~protocol ~init ~rng
  done;
  let simulated = !acc /. float_of_int trials in
  check_bool
    (Printf.sprintf "simulated %.3f within 10%% of exact %.3f" simulated exact)
    true
    (Float.abs (simulated -. exact) /. exact < 0.1)

let test_chain_matches_engine_across_configurations () =
  (* Not just the worst configuration: sample several distinct starting
     configurations and compare the solved expectation against the count
     engine's mean on each. *)
  let n = 5 in
  let protocol = Core.Silent_n_state.protocol ~n in
  let a = analysis n in
  let configs =
    [
      [| 0; 0; 0; 0; 0 |]; (* all colliding *)
      [| 0; 0; 1; 2; 3 |]; (* one duplicate *)
      [| 0; 0; 2; 2; 4 |]; (* two duplicate pairs *)
      [| 4; 4; 4; 4; 4 |]; (* all at the top: wrap-around heavy *)
      [| 0; 1; 2; 3; 4 |]; (* already correct: exact 0 *)
    ]
  in
  List.iter
    (fun ranks ->
      let init = Array.map (Core.Silent_n_state.state_of_rank0 ~n) ranks in
      let exact = Chain.expected_time a init in
      if exact = 0.0 then
        check_bool "correct configuration has zero time" true true
      else begin
        let trials = 3000 in
        let root = Prng.create ~seed:77 in
        let acc = ref 0.0 in
        for _ = 1 to trials do
          let rng = Prng.split root in
          acc := !acc +. time_to_silence ~protocol ~init ~rng
        done;
        let simulated = !acc /. float_of_int trials in
        check_bool
          (Printf.sprintf "config matches within 12%% (exact %.3f vs %.3f)" exact simulated)
          true
          (Float.abs (simulated -. exact) /. exact < 0.12)
      end)
    configs

(* A two-agent, two-state randomized descriptor: a (0, 0) meeting moves
   the responder to 1 when [move] says so, every other meeting is null.
   Configurations with no agent at 0 are inadmissible, so {0, 0} -> {0, 1}
   is the whole chain and the expected time is 1 / P(move) interactions. *)
let coin_descriptor ~max_draws move : int Engine.Enumerable.t =
  let protocol : int Engine.Protocol.t =
    {
      Engine.Protocol.name = "coin-step";
      n = 2;
      transition = (fun rng a b -> if a = 0 && b = 0 && move rng then (0, 1) else (a, b));
      deterministic = false;
      equal = Int.equal;
      pp = Format.pp_print_int;
      rank = (fun s -> Some (s + 1));
      is_leader = (fun s -> s = 0);
    }
  in
  Engine.Enumerable.make ~protocol ~states:[ 0; 1 ] ~max_draws
    ~admissible:(Array.exists (( = ) 0))
    ()

let test_chain_weights_randomized () =
  (* one fair coin: 2 interactions, parallel time 1 *)
  let a = chain (coin_descriptor ~max_draws:1 (fun rng -> Prng.int rng 2 = 1)) in
  check_int "two admissible configurations" 2 (Chain.configurations a);
  feq 1e-12 "one coin" 1.0 (Chain.expected_time a [| 0; 0 |]);
  feq 1e-12 "already correct" 0.0 (Chain.expected_time a [| 1; 0 |]);
  (* a 1/2 coin, then on failure a 1/3 one: P(move) = 1/2 + 1/6 = 2/3,
     1.5 interactions, parallel time 0.75; the two non-moving outcomes
     have equal outputs and are summed *)
  let a =
    chain
      (coin_descriptor ~max_draws:2 (fun rng -> Prng.int rng 2 = 1 || Prng.int rng 3 = 0))
  in
  feq 1e-12 "two coins" 0.75 (Chain.expected_time a [| 0; 0 |])

(* Two livelocks on two agents and two states. flip-forever: two agents
   in the same state both flip, so {0, 0} and {1, 1} alternate forever, a
   bottom SCC of two configurations. swap-forever: distinct states swap,
   so {0, 1} maps to itself as a multiset while its agents keep changing
   state, a bottom SCC of one configuration that is not silent. The
   verdict names the non-silent bottom SCC in both, and no hitting time
   is solved. *)
let two_state_descriptor name transition : int Engine.Enumerable.t =
  let protocol : int Engine.Protocol.t =
    {
      Engine.Protocol.name;
      n = 2;
      transition = (fun _ a b -> transition a b);
      deterministic = true;
      equal = Int.equal;
      pp = Format.pp_print_int;
      rank = (fun s -> Some (s + 1));
      is_leader = (fun s -> s = 0);
    }
  in
  Engine.Enumerable.make ~protocol ~states:[ 0; 1 ] ()

let contains ~sub s =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let swap_forever = two_state_descriptor "swap-forever" (fun a b -> if a <> b then (b, a) else (a, b))

let test_chain_detects_livelock () =
  let livelocks =
    [
      ( two_state_descriptor "flip-forever" (fun a b -> if a = b then (1 - a, 1 - b) else (a, b)),
        [| 0; 0 |],
        "bottom SCC of 2 configurations is not silent" );
      ( swap_forever,
        [| 0; 1 |],
        "bottom configuration is not silent (an interaction swaps states): [0, 1]" );
    ]
  in
  List.iter
    (fun (e, start, finding) ->
      let a = chain e in
      match Chain.expected_time a start with
      | exception Failure msg ->
          check_bool (Printf.sprintf "%S names %S" msg finding) true (contains ~sub:finding msg)
      | t -> Alcotest.failf "expected_time returned %g on a livelock" t)
    livelocks;
  check_int "swap-forever: {0, 0} and {1, 1} are the only silent configurations" 2
    (Chain.absorbing (chain swap_forever))

(* A protocol with only null transitions is silent everywhere, and most of
   its configurations are incorrect: the safety model-check must say no. *)
let test_chain_flags_incorrect_absorbing () =
  let inert : int Engine.Protocol.t =
    {
      Engine.Protocol.name = "inert";
      n = 3;
      transition = (fun _ a b -> (a, b));
      deterministic = true;
      equal = Int.equal;
      pp = Format.pp_print_int;
      rank = (fun s -> Some (s + 1));
      is_leader = (fun s -> s = 0);
    }
  in
  let a = chain (Engine.Enumerable.make ~protocol:inert ~states:[ 0; 1; 2 ] ()) in
  check_int "everything absorbing" (Chain.configurations a) (Chain.absorbing a);
  check_bool "incorrect silent configurations flagged" false (Chain.all_absorbing_correct a)

let suite =
  [
    Alcotest.test_case "chain config counts" `Quick test_chain_config_counts;
    Alcotest.test_case "chain model-checks stabilization" `Quick test_chain_model_checks_self_stabilization;
    Alcotest.test_case "chain correct config zero" `Quick test_chain_correct_config_time_zero;
    Alcotest.test_case "chain worst witness" `Quick test_chain_worst_witness;
    Alcotest.test_case "chain worst witness is all-zero" `Quick test_chain_worst_witness_all_zero;
    Alcotest.test_case "chain pinned values" `Quick test_chain_pinned_values;
    Alcotest.test_case "chain pinned configurations" `Quick test_chain_pinned_configurations;
    Alcotest.test_case "chain matches simulation" `Slow test_chain_matches_simulation;
    Alcotest.test_case "chain matches engine across configs" `Slow
      test_chain_matches_engine_across_configurations;
    Alcotest.test_case "chain weights a randomized descriptor" `Quick test_chain_weights_randomized;
    Alcotest.test_case "chain detects livelock" `Quick test_chain_detects_livelock;
    Alcotest.test_case "chain flags incorrect absorbing" `Quick test_chain_flags_incorrect_absorbing;
  ]
