(* Tests for the exact Markov-chain analysis. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let feq tol = Alcotest.(check (float tol))

(* Linear solver *)

let test_solve_identity () =
  let a = [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let x = Exact.Linear.solve a [| 3.0; -2.0 |] in
  feq 1e-12 "x0" 3.0 x.(0);
  feq 1e-12 "x1" (-2.0) x.(1)

let test_solve_known_system () =
  (* 2x + y = 5; x - y = 1  =>  x = 2, y = 1 *)
  let a = [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] in
  let x = Exact.Linear.solve a [| 5.0; 1.0 |] in
  feq 1e-12 "x" 2.0 x.(0);
  feq 1e-12 "y" 1.0 x.(1)

let test_solve_needs_pivoting () =
  (* zero pivot in the natural order *)
  let a = [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
  let x = Exact.Linear.solve a [| 7.0; 9.0 |] in
  feq 1e-12 "x" 9.0 x.(0);
  feq 1e-12 "y" 7.0 x.(1)

let test_solve_singular () =
  let a = [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |] |] in
  Alcotest.check_raises "singular" (Failure "Linear.solve: singular matrix") (fun () ->
      ignore (Exact.Linear.solve a [| 1.0; 2.0 |]))

let test_solve_random_residual () =
  let rng = Prng.create ~seed:5 in
  let n = 20 in
  let a = Array.init n (fun _ -> Array.init n (fun _ -> Prng.float rng -. 0.5)) in
  (* diagonal dominance keeps it well-conditioned *)
  for i = 0 to n - 1 do
    a.(i).(i) <- a.(i).(i) +. 10.0
  done;
  let b = Array.init n (fun _ -> Prng.float rng) in
  let a_copy = Array.map Array.copy a in
  let x = Exact.Linear.solve a_copy b in
  check_bool "residual tiny" true (Exact.Linear.max_abs_residual a x b < 1e-9)

let test_mat_vec () =
  let a = [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
  let y = Exact.Linear.mat_vec a [| 1.0; 1.0 |] in
  feq 1e-12 "row0" 3.0 y.(0);
  feq 1e-12 "row1" 7.0 y.(1)

(* Chain analysis of Silent-n-state-SSR *)

let binomial n k =
  let rec go acc i = if i > k then acc else go (acc * (n - k + i) / i) (i + 1) in
  go 1 1

let analysis n =
  Exact.Chain.analyze
    ~protocol:(Core.Silent_n_state.protocol ~n)
    ~codec:(Exact.Chain.silent_n_state_codec ~n)

let test_chain_config_counts () =
  List.iter
    (fun n ->
      let a = analysis n in
      check_int
        (Printf.sprintf "C(2n-1, n-1) configurations at n=%d" n)
        (binomial ((2 * n) - 1) (n - 1))
        (Exact.Chain.configurations a))
    [ 3; 4; 5 ]

let test_chain_model_checks_self_stabilization () =
  List.iter
    (fun n ->
      let a = analysis n in
      check_int "unique absorbing configuration" 1 (Exact.Chain.absorbing a);
      check_bool "the silent configuration is correct" true (Exact.Chain.all_absorbing_correct a))
    [ 3; 4; 5; 6 ]

let test_chain_correct_config_time_zero () =
  let n = 4 in
  let a = analysis n in
  feq 1e-12 "already stable" 0.0 (Exact.Chain.expected_time a (Core.Scenarios.silent_correct ~n))

let test_chain_worst_witness () =
  let n = 5 in
  let a = analysis n in
  let worst, witness = Exact.Chain.worst_expected_time a in
  check_int "witness is a configuration" n (Array.length witness);
  check_bool "worst positive" true (worst > 0.0);
  feq 1e-9 "witness attains the worst value" worst (Exact.Chain.expected_time a witness);
  check_bool "mean below worst" true (Exact.Chain.mean_expected_time a < worst)

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
  let exact = Exact.Chain.expected_time a init in
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
      let exact = Exact.Chain.expected_time a init in
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

let test_chain_rejects_randomized () =
  let n = 3 in
  let p = { (Core.Silent_n_state.protocol ~n) with Engine.Protocol.deterministic = false } in
  Alcotest.check_raises "randomized rejected"
    (Invalid_argument "Chain.analyze: protocol is randomized") (fun () ->
      ignore (Exact.Chain.analyze ~protocol:p ~codec:(Exact.Chain.silent_n_state_codec ~n)))

(* A two-state protocol that swaps A and B forever has a recurrent
   non-absorbing configuration {A, B}: analyze must refuse. *)
let swapping_protocol ~n : int Engine.Protocol.t =
  {
    Engine.Protocol.name = "swap-forever";
    n;
    transition = (fun _ a b -> if a <> b then (b, a) else (a, b));
    deterministic = true;
    equal = Int.equal;
    pp = Format.pp_print_int;
    rank = (fun s -> Some (s + 1));
    is_leader = (fun s -> s = 0);
  }

let test_chain_detects_livelock () =
  let codec = { Exact.Chain.size = 2; index = Fun.id; state = Fun.id } in
  Alcotest.check_raises "livelock detected"
    (Failure "Chain.analyze: non-absorbing recurrent class") (fun () ->
      ignore (Exact.Chain.analyze ~protocol:(swapping_protocol ~n:2) ~codec))

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
  let codec = { Exact.Chain.size = 3; index = Fun.id; state = Fun.id } in
  let a = Exact.Chain.analyze ~protocol:inert ~codec in
  check_int "everything absorbing" (Exact.Chain.configurations a) (Exact.Chain.absorbing a);
  check_bool "incorrect silent configurations flagged" false (Exact.Chain.all_absorbing_correct a)

let suite =
  [
    Alcotest.test_case "solve identity" `Quick test_solve_identity;
    Alcotest.test_case "solve known system" `Quick test_solve_known_system;
    Alcotest.test_case "solve with pivoting" `Quick test_solve_needs_pivoting;
    Alcotest.test_case "solve singular" `Quick test_solve_singular;
    Alcotest.test_case "solve residual" `Quick test_solve_random_residual;
    Alcotest.test_case "mat_vec" `Quick test_mat_vec;
    Alcotest.test_case "chain config counts" `Quick test_chain_config_counts;
    Alcotest.test_case "chain model-checks stabilization" `Quick test_chain_model_checks_self_stabilization;
    Alcotest.test_case "chain correct config zero" `Quick test_chain_correct_config_time_zero;
    Alcotest.test_case "chain worst witness" `Quick test_chain_worst_witness;
    Alcotest.test_case "chain matches simulation" `Slow test_chain_matches_simulation;
    Alcotest.test_case "chain matches engine across configs" `Slow
      test_chain_matches_engine_across_configurations;
    Alcotest.test_case "chain rejects randomized" `Quick test_chain_rejects_randomized;
    Alcotest.test_case "chain detects livelock" `Quick test_chain_detects_livelock;
    Alcotest.test_case "chain flags incorrect absorbing" `Quick test_chain_flags_incorrect_absorbing;
  ]
