(* Self-stabilization under repeated transient faults: the defining
   property, exercised end-to-end with randomized corruption. *)

let check_bool = Alcotest.(check bool)

let stabilize ~task ~expected_time sim =
  let n = Engine.Sim.n sim in
  let o =
    Engine.Runner.run_to_stability ~task
      ~max_interactions:
        (Engine.Sim.interactions sim + Engine.Runner.default_horizon ~n ~expected_time)
      ~confirm_interactions:(Engine.Runner.default_confirm ~n)
      (Engine.Exec.of_sim sim)
  in
  o.Engine.Runner.converged

let test_optimal_survives_repeated_bursts () =
  let n = 16 in
  let params = Core.Params.optimal_silent n in
  let protocol = Core.Optimal_silent.protocol ~params ~n () in
  let rng = Prng.create ~seed:101 in
  let fault_rng = Prng.create ~seed:102 in
  let init = Core.Scenarios.optimal_uniform rng ~params ~n in
  let sim = Engine.Sim.make ~protocol ~init ~rng in
  for burst = 0 to 4 do
    check_bool
      (Printf.sprintf "recovered after burst %d" burst)
      true
      (stabilize ~task:Engine.Runner.Ranking ~expected_time:(float_of_int (30 * n)) sim);
    ignore
      (Engine.Sim.corrupt sim ~rng:fault_rng ~fraction:0.4 (fun rng ->
           (Core.Scenarios.optimal_uniform rng ~params ~n).(0)))
  done

let test_sublinear_survives_repeated_bursts () =
  let n = 8 and h = 1 in
  let params = Core.Params.sublinear ~h n in
  let protocol = Core.Sublinear.protocol ~params ~n ~h () in
  let rng = Prng.create ~seed:103 in
  let fault_rng = Prng.create ~seed:104 in
  let init = Core.Scenarios.sublinear_uniform rng ~params ~n in
  let sim = Engine.Sim.make ~protocol ~init ~rng in
  let expected_time = float_of_int (params.Core.Params.d_max + (8 * params.Core.Params.t_h) + (8 * n)) in
  for burst = 0 to 3 do
    check_bool
      (Printf.sprintf "recovered after burst %d" burst)
      true
      (stabilize ~task:Engine.Runner.Ranking ~expected_time sim);
    ignore
      (Engine.Sim.corrupt sim ~rng:fault_rng ~fraction:0.4 (fun rng ->
           (Core.Scenarios.sublinear_uniform rng ~params ~n).(0)))
  done

let test_silent_survives_single_agent_faults () =
  (* Even a single corrupted agent after silence must be repaired. *)
  let n = 10 in
  let protocol = Core.Silent_n_state.protocol ~n in
  let rng = Prng.create ~seed:105 in
  let fault_rng = Prng.create ~seed:106 in
  let sim = Engine.Sim.make ~protocol ~init:(Core.Scenarios.silent_correct ~n) ~rng in
  for k = 0 to 5 do
    Engine.Sim.inject sim (Prng.int fault_rng n)
      (Core.Silent_n_state.state_of_rank0 ~n (Prng.int fault_rng n));
    check_bool
      (Printf.sprintf "repaired fault %d" k)
      true
      (stabilize ~task:Engine.Runner.Ranking ~expected_time:(float_of_int (n * n)) sim)
  done

let qcheck_optimal_recovers_from_any_corruption =
  QCheck.Test.make ~name:"Optimal-Silent-SSR recovers from arbitrary corruption (randomized)"
    ~count:15
    QCheck.(pair small_int (float_range 0.1 1.0))
    (fun (seed, fraction) ->
      let n = 12 in
      let params = Core.Params.optimal_silent n in
      let protocol = Core.Optimal_silent.protocol ~params ~n () in
      let rng = Prng.create ~seed:(seed + 1) in
      let sim = Engine.Sim.make ~protocol ~init:(Core.Scenarios.optimal_correct ~n) ~rng in
      ignore
        (Engine.Sim.corrupt sim ~rng:(Prng.create ~seed:(seed + 2)) ~fraction (fun rng ->
             (Core.Scenarios.optimal_uniform rng ~params ~n).(0)));
      stabilize ~task:Engine.Runner.Ranking ~expected_time:(float_of_int (40 * n)) sim)

let qcheck_ranks_match_name_order =
  (* After Sublinear-Time-SSR stabilizes, ranks are exactly the
     lexicographic positions of the names. *)
  QCheck.Test.make ~name:"sublinear ranks = lexicographic name order" ~count:10 QCheck.small_int
    (fun seed ->
      let n = 8 and h = 1 in
      let params = Core.Params.sublinear ~h n in
      let protocol = Core.Sublinear.protocol ~params ~n ~h () in
      let rng = Prng.create ~seed:(seed + 10) in
      let init = Core.Scenarios.sublinear_fresh rng ~params ~n in
      let sim = Engine.Sim.make ~protocol ~init ~rng in
      let expected_time = float_of_int (params.Core.Params.d_max + (8 * params.Core.Params.t_h) + (8 * n)) in
      stabilize ~task:Engine.Runner.Ranking ~expected_time sim
      &&
      let snapshot = Engine.Sim.snapshot sim in
      let agents =
        Array.to_list snapshot
        |> List.filter_map (function
             | Core.Reset.Computing c -> Some (c.Core.Sublinear.name, c.Core.Sublinear.rank)
             | Core.Reset.Resetting _ -> None)
      in
      List.length agents = n
      &&
      let sorted = List.sort (fun (a, _) (b, _) -> Core.Name.compare a b) agents in
      List.for_all2 (fun (_, rank) expected -> rank = expected) sorted
        (List.init n (fun i -> i + 1)))

let qcheck_reset_wave_always_completes =
  QCheck.Test.make ~name:"Propagate-Reset completes from arbitrary Resetting soup" ~count:20
    QCheck.small_int (fun seed ->
      let n = 24 in
      let r_max = 10 and d_max = 20 in
      let spec =
        {
          Core.Reset.r_max;
          d_max;
          recruit_payload = (fun _ -> ());
          propagating_tick = (fun _ () -> ());
          dormant_tick = (fun _ () -> ());
          resetting_pair = (fun _ () () -> ((), ()));
          awaken = (fun _ () -> ());
        }
      in
      let protocol : (unit, unit) Core.Reset.role Engine.Protocol.t =
        {
          Engine.Protocol.name = "wave";
          n;
          transition =
            (fun rng a b ->
              match (a, b) with
              | Core.Reset.Computing (), Core.Reset.Computing () -> (a, b)
              | _ -> Core.Reset.step ~spec rng a b);
          deterministic = true;
          equal = ( = );
          pp = (fun fmt _ -> Format.pp_print_string fmt "_");
          rank = (fun _ -> None);
          is_leader = (fun _ -> false);
        }
      in
      let rng = Prng.create ~seed:(seed + 20) in
      let init =
        Array.init n (fun _ ->
            match Prng.int rng 3 with
            | 0 -> Core.Reset.Computing ()
            | 1 ->
                Core.Reset.Resetting
                  { Core.Reset.resetcount = 1 + Prng.int rng r_max; delaytimer = Prng.int rng (d_max + 1); payload = () }
            | _ ->
                Core.Reset.Resetting
                  { Core.Reset.resetcount = 0; delaytimer = Prng.int rng (d_max + 1); payload = () })
      in
      let exec = Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng () in
      let all_computing () =
        Array.for_all
          (function Core.Reset.Computing () -> true | Core.Reset.Resetting _ -> false)
          (Engine.Exec.snapshot exec)
      in
      Engine.Runner.run_while exec ~max_interactions:(2000 * n) (fun () ->
          not (all_computing ()));
      all_computing ())

let test_history_timers_expire_paths () =
  (* After T ticks, a path stops being usable for detection. *)
  let name_a = Core.Name.of_int ~bits:1 ~len:3 in
  let name_b = Core.Name.of_int ~bits:2 ~len:3 in
  let tree =
    Core.History_tree.merge ~h:2 ~own:(Core.Name.of_int ~bits:0 ~len:3) ~partner:name_a
      ~partner_tree:[ { Core.History_tree.name = name_b; sync = 9; timer = 3; children = [] } ]
      ~sync:5 ~timer:2 Core.History_tree.empty
  in
  Alcotest.(check int) "fresh path exists" 1
    (List.length (Core.History_tree.fresh_paths_to ~name:name_b tree));
  let aged = Core.History_tree.decrement_timers (Core.History_tree.decrement_timers tree) in
  Alcotest.(check int) "expired path ignored" 0
    (List.length (Core.History_tree.fresh_paths_to ~name:name_b aged))

let suite =
  [
    Alcotest.test_case "optimal survives repeated bursts" `Slow test_optimal_survives_repeated_bursts;
    Alcotest.test_case "sublinear survives repeated bursts" `Slow test_sublinear_survives_repeated_bursts;
    Alcotest.test_case "silent survives single faults" `Slow test_silent_survives_single_agent_faults;
    QCheck_alcotest.to_alcotest qcheck_optimal_recovers_from_any_corruption;
    QCheck_alcotest.to_alcotest qcheck_ranks_match_name_order;
    QCheck_alcotest.to_alcotest qcheck_reset_wave_always_completes;
    Alcotest.test_case "history timers expire paths" `Quick test_history_timers_expire_paths;
  ]
