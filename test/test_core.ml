(* Tests for the paper's protocols and their building blocks. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Params                                                              *)

let test_params_optimal () =
  let p = Core.Params.optimal_silent 64 in
  check_bool "r_max positive" true (p.Core.Params.r_max > 0);
  check_bool "d_max linear" true (p.Core.Params.d_max >= 64);
  check_bool "e_max linear" true (p.Core.Params.e_max >= 64);
  let paper = Core.Params.optimal_silent ~preset:Core.Params.Paper 64 in
  check_bool "paper r_max larger" true (paper.Core.Params.r_max > p.Core.Params.r_max)

let test_params_sublinear () =
  let p = Core.Params.sublinear ~h:2 64 in
  check_int "name bits 3·log2" 18 p.Core.Params.name_bits;
  check_int "s_max n^2" 4096 p.Core.Params.s_max;
  check_int "h recorded" 2 p.Core.Params.h;
  check_bool "d_max covers name" true (p.Core.Params.d_max >= p.Core.Params.name_bits);
  check_int "h=0 has no timer" 0 (Core.Params.sublinear ~h:0 64).Core.Params.t_h

let test_params_t_h_decreasing () =
  (* Larger H detects collisions through shorter epidemic legs: T_H falls
     (until the log regime floor). *)
  let t h = (Core.Params.sublinear ~h 256).Core.Params.t_h in
  check_bool "t_1 > t_3" true (t 1 > t 3)

let test_params_helpers () =
  check_int "ceil_log2 1" 0 (Core.Params.ceil_log2 1);
  check_int "ceil_log2 8" 3 (Core.Params.ceil_log2 8);
  check_int "ceil_log2 9" 4 (Core.Params.ceil_log2 9);
  check_int "h_log 64" 6 (Core.Params.h_log 64);
  check_int "ceil_ln 8" 3 (Core.Params.ceil_ln 8)

let test_params_errors () =
  Alcotest.check_raises "n too small" (Invalid_argument "Params: population size must be >= 2")
    (fun () -> ignore (Core.Params.optimal_silent 1));
  Alcotest.check_raises "negative H" (Invalid_argument "Params.sublinear: H must be >= 0")
    (fun () -> ignore (Core.Params.sublinear ~h:(-1) 8))

(* ------------------------------------------------------------------ *)
(* Name                                                                *)

let nm bits len = Core.Name.of_int ~bits ~len

let test_name_build () =
  let n = Core.Name.empty in
  check_int "empty length" 0 (Core.Name.length n);
  check_bool "is empty" true (Core.Name.is_empty n);
  let n = Core.Name.append_bit n true in
  let n = Core.Name.append_bit n false in
  let n = Core.Name.append_bit n true in
  check_int "length 3" 3 (Core.Name.length n);
  Alcotest.(check string) "bits" "101" (Core.Name.to_string n);
  check_int "as int" 0b101 (Core.Name.to_int n)

let test_name_roundtrip () =
  let n = nm 0b0110 4 in
  check_int "to_int" 6 (Core.Name.to_int n);
  Alcotest.(check string) "string" "0110" (Core.Name.to_string n);
  check_bool "bit 0" false (Core.Name.bit n 0);
  check_bool "bit 1" true (Core.Name.bit n 1);
  check_bool "bit 3" false (Core.Name.bit n 3)

let test_name_compare_lexicographic () =
  let lt a b = Core.Name.compare a b < 0 in
  check_bool "0 < 1" true (lt (nm 0 1) (nm 1 1));
  check_bool "prefix first: 0 < 00" true (lt (nm 0 1) (nm 0 2));
  check_bool "prefix first: 0 < 01" true (lt (nm 0 1) (nm 1 2));
  check_bool "01 < 1" true (lt (nm 0b01 2) (nm 1 1));
  check_bool "equal" true (Core.Name.compare (nm 5 3) (nm 5 3) = 0);
  check_bool "011 < 0110 (prefix)" true (lt (nm 0b011 3) (nm 0b0110 4));
  check_bool "leading zeros matter: 001 < 01" true (lt (nm 0b001 3) (nm 0b01 2))

let test_name_equal () =
  check_bool "same" true (Core.Name.equal (nm 3 2) (nm 3 2));
  check_bool "same bits different length" false (Core.Name.equal (nm 1 1) (nm 1 2));
  check_bool "empty equals empty" true (Core.Name.equal Core.Name.empty Core.Name.empty)

let test_name_random () =
  let rng = Prng.create ~seed:77 in
  let n = Core.Name.random rng ~width:12 in
  check_int "width" 12 (Core.Name.length n);
  check_bool "complete" true (Core.Name.is_complete ~width:12 n);
  check_bool "incomplete at 13" false (Core.Name.is_complete ~width:13 n)

let test_name_errors () =
  Alcotest.check_raises "bit range" (Invalid_argument "Name.bit: index out of range") (fun () ->
      ignore (Core.Name.bit (nm 1 1) 1));
  Alcotest.check_raises "of_int range" (Invalid_argument "Name.of_int: bits out of range")
    (fun () -> ignore (nm 4 2))

let qcheck_name_order_total =
  QCheck.Test.make ~name:"name order is antisymmetric and transitive on samples" ~count:500
    QCheck.(triple (pair (int_bound 255) (int_range 1 8)) (pair (int_bound 255) (int_range 1 8))
              (pair (int_bound 255) (int_range 1 8)))
    (fun ((b1, l1), (b2, l2), (b3, l3)) ->
      let mk b l = Core.Name.of_int ~bits:(b land ((1 lsl l) - 1)) ~len:l in
      let x = mk b1 l1 and y = mk b2 l2 and z = mk b3 l3 in
      let c = Core.Name.compare in
      let antisym = not (c x y < 0 && c y x < 0) in
      let trans = not (c x y <= 0 && c y z <= 0) || c x z <= 0 in
      let refl = c x x = 0 in
      antisym && trans && refl)

(* ------------------------------------------------------------------ *)
(* Roster                                                              *)

let test_roster_basics () =
  let a = nm 0 2 and b = nm 1 2 and c = nm 2 2 in
  let r = Core.Roster.of_list [ b; a ] in
  check_int "cardinal" 2 (Core.Roster.cardinal r);
  check_bool "mem a" true (Core.Roster.mem a r);
  check_bool "not mem c" false (Core.Roster.mem c r);
  let r2 = Core.Roster.add c r in
  check_int "added" 3 (Core.Roster.cardinal r2);
  check_int "add idempotent" 3 (Core.Roster.cardinal (Core.Roster.add c r2))

let test_roster_union () =
  let r1 = Core.Roster.of_list [ nm 0 2; nm 1 2 ] in
  let r2 = Core.Roster.of_list [ nm 1 2; nm 2 2 ] in
  check_int "union dedups" 3 (Core.Roster.cardinal (Core.Roster.union r1 r2))

let test_roster_rank_of () =
  let names = [ nm 0b10 2; nm 0b00 2; nm 0b11 2; nm 0b01 2 ] in
  let r = Core.Roster.of_list names in
  check_int "00 is rank 1" 1 (Option.get (Core.Roster.rank_of (nm 0b00 2) r));
  check_int "01 is rank 2" 2 (Option.get (Core.Roster.rank_of (nm 0b01 2) r));
  check_int "11 is rank 4" 4 (Option.get (Core.Roster.rank_of (nm 0b11 2) r));
  check_bool "absent" true (Core.Roster.rank_of (nm 0b111 3) r = None)

let test_roster_elements_sorted () =
  let r = Core.Roster.of_list [ nm 3 2; nm 0 2; nm 2 2 ] in
  let sorted = Core.Roster.elements r in
  check_bool "ascending" true
    (List.sort Core.Name.compare sorted = sorted)

let qcheck_roster_rank_is_sorted_position =
  QCheck.Test.make ~name:"rank_of equals position in sorted elements" ~count:300
    QCheck.(list_of_size Gen.(1 -- 20) (int_bound 63))
    (fun bits ->
      let names = List.map (fun b -> Core.Name.of_int ~bits:b ~len:6) bits in
      let r = Core.Roster.of_list names in
      let elements = Core.Roster.elements r in
      List.for_all
        (fun name ->
          match Core.Roster.rank_of name r with
          | None -> false
          | Some rank ->
              Core.Name.equal (List.nth elements (rank - 1)) name)
        names)

(* ------------------------------------------------------------------ *)
(* History trees                                                       *)

let t_node name sync timer children = { Core.History_tree.name; sync; timer; children }

let test_tree_merge_basic () =
  let own = nm 0 3 and partner = nm 1 3 in
  let t =
    Core.History_tree.merge ~h:2 ~own ~partner ~partner_tree:Core.History_tree.empty ~sync:5
      ~timer:10 Core.History_tree.empty
  in
  check_int "one child" 1 (Core.History_tree.node_count t);
  match Core.History_tree.find_child ~name:partner t with
  | Some nd ->
      check_int "sync" 5 nd.Core.History_tree.sync;
      check_int "timer" 10 nd.Core.History_tree.timer;
      check_int "no grandchildren" 0 (List.length nd.Core.History_tree.children)
  | None -> Alcotest.fail "partner child missing"

let test_tree_merge_replaces_existing () =
  let own = nm 0 3 and partner = nm 1 3 in
  let t1 =
    Core.History_tree.merge ~h:2 ~own ~partner ~partner_tree:Core.History_tree.empty ~sync:5
      ~timer:10 Core.History_tree.empty
  in
  let t2 =
    Core.History_tree.merge ~h:2 ~own ~partner ~partner_tree:Core.History_tree.empty ~sync:9
      ~timer:10 t1
  in
  check_int "still one child" 1 (Core.History_tree.node_count t2);
  check_int "sync refreshed" 9
    (Option.get (Core.History_tree.find_child ~name:partner t2)).Core.History_tree.sync

let test_tree_merge_truncates () =
  let own = nm 0 3 and partner = nm 1 3 in
  let deep = [ t_node (nm 2 3) 1 9 [ t_node (nm 3 3) 2 9 [ t_node (nm 4 3) 3 9 [] ] ] ] in
  let t =
    Core.History_tree.merge ~h:2 ~own ~partner ~partner_tree:deep ~sync:5 ~timer:10
      Core.History_tree.empty
  in
  check_int "depth capped at h" 2 (Core.History_tree.depth t);
  (* partner at depth 1, its depth-1 children kept (now depth 2), deeper cut *)
  check_int "nodes" 2 (Core.History_tree.node_count t)

let test_tree_merge_removes_own () =
  let own = nm 0 3 and partner = nm 1 3 in
  let partner_tree = [ t_node own 7 9 [ t_node (nm 2 3) 1 9 [] ] ] in
  let t =
    Core.History_tree.merge ~h:3 ~own ~partner ~partner_tree ~sync:5 ~timer:10
      Core.History_tree.empty
  in
  check_bool "own name gone" true (Core.History_tree.simply_labelled ~own t);
  check_int "only partner survives" 1 (Core.History_tree.node_count t)

let test_tree_merge_h0 () =
  let t =
    Core.History_tree.merge ~h:0 ~own:(nm 0 3) ~partner:(nm 1 3)
      ~partner_tree:[ t_node (nm 2 3) 1 9 [] ] ~sync:5 ~timer:10 Core.History_tree.empty
  in
  check_int "h=0 keeps no history" 0 (Core.History_tree.node_count t)

let test_tree_decrement () =
  let t = [ t_node (nm 1 3) 1 2 [ t_node (nm 2 3) 2 0 [] ] ] in
  let t = Core.History_tree.decrement_timers t in
  (match t with
  | [ nd ] ->
      check_int "decremented" 1 nd.Core.History_tree.timer;
      check_int "floored at 0" 0 (List.hd nd.Core.History_tree.children).Core.History_tree.timer
  | _ -> Alcotest.fail "shape");
  ()

let test_tree_remove_named_deep () =
  let target = nm 5 3 in
  let t =
    [
      t_node (nm 1 3) 1 9 [ t_node target 2 9 [ t_node (nm 2 3) 3 9 [] ] ];
      t_node target 4 9 [];
    ]
  in
  let t = Core.History_tree.remove_named ~name:target t in
  check_int "both removed with subtrees" 1 (Core.History_tree.node_count t)

let test_tree_paths_filter_stale () =
  let target = nm 7 3 in
  let fresh_path = t_node (nm 1 3) 1 5 [ t_node target 2 5 [] ] in
  let stale_path = t_node (nm 2 3) 3 0 [ t_node target 4 5 [] ] in
  let t = [ fresh_path; stale_path ] in
  let paths = Core.History_tree.fresh_paths_to ~name:target t in
  check_int "only fresh path" 1 (List.length paths);
  match paths with
  | [ [ (n1, s1); (n2, s2) ] ] ->
      check_bool "first node" true (Core.Name.equal n1 (nm 1 3));
      check_int "first sync" 1 s1;
      check_bool "end node" true (Core.Name.equal n2 target);
      check_int "end sync" 2 s2
  | _ -> Alcotest.fail "unexpected path shape"

let test_tree_paths_multiple () =
  let target = nm 7 3 in
  let t =
    [
      t_node target 1 5 [];
      t_node (nm 1 3) 2 5 [ t_node target 3 5 [] ];
    ]
  in
  check_int "two ways to reach target" 2
    (List.length (Core.History_tree.fresh_paths_to ~name:target t))

(* Figure 2 as unit tests of consistency checking. *)
let figure2_setup variant =
  let a = nm 0 3 and b = nm 1 3 and c = nm 2 3 and d = nm 3 3 in
  let trees = Hashtbl.create 4 in
  List.iter (fun n -> Hashtbl.replace trees n Core.History_tree.empty) [ a; b; c; d ];
  let interact x y sync =
    let tx = Hashtbl.find trees x and ty = Hashtbl.find trees y in
    Hashtbl.replace trees x
      (Core.History_tree.merge ~h:3 ~own:x ~partner:y ~partner_tree:ty ~sync ~timer:50 tx);
    Hashtbl.replace trees y
      (Core.History_tree.merge ~h:3 ~own:y ~partner:x ~partner_tree:tx ~sync ~timer:50 ty)
  in
  interact a b 1;
  interact b c 2;
  if variant = `Right then interact a b 7;
  interact c d 3;
  (trees, a, d)

let test_figure2_left () =
  let trees, a, d = figure2_setup `Left in
  let d_tree = Hashtbl.find trees d and a_tree = Hashtbl.find trees a in
  match Core.History_tree.fresh_paths_to ~name:a d_tree with
  | [ path ] ->
      check_int "path length 3" 3 (List.length path);
      Alcotest.(check (option int)) "True after first edge" (Some 1)
        (Core.History_tree.consistent_at ~tree:a_tree ~origin:d ~path)
  | _ -> Alcotest.fail "expected exactly one path d->...->a"

let test_figure2_right () =
  let trees, a, d = figure2_setup `Right in
  let d_tree = Hashtbl.find trees d and a_tree = Hashtbl.find trees a in
  match Core.History_tree.fresh_paths_to ~name:a d_tree with
  | [ path ] ->
      Alcotest.(check (option int)) "True after second edge" (Some 2)
        (Core.History_tree.consistent_at ~tree:a_tree ~origin:d ~path)
  | _ -> Alcotest.fail "expected exactly one path d->...->a"

let test_figure2_impostor () =
  (* An impostor with a's name but no matching history fails the check. *)
  let trees, a, d = figure2_setup `Left in
  let d_tree = Hashtbl.find trees d in
  ignore a;
  match Core.History_tree.fresh_paths_to ~name:a d_tree with
  | [ path ] ->
      check_bool "empty-tree impostor is inconsistent" false
        (Core.History_tree.consistent ~tree:Core.History_tree.empty ~origin:d ~path);
      (* ...and an impostor with a wrong sync also fails *)
      let wrong = [ t_node (nm 1 3) 99 50 [] ] in
      check_bool "wrong-sync impostor is inconsistent" false
        (Core.History_tree.consistent ~tree:wrong ~origin:d ~path)
  | _ -> Alcotest.fail "expected exactly one path"

let test_consistent_empty_path () =
  check_bool "empty path is not consistent" false
    (Core.History_tree.consistent ~tree:Core.History_tree.empty ~origin:(nm 0 3) ~path:[])

let test_tree_invariant_checkers () =
  let own = nm 0 3 in
  let good = [ t_node (nm 1 3) 1 1 [ t_node (nm 2 3) 2 1 [] ] ] in
  check_bool "good simply labelled" true (Core.History_tree.simply_labelled ~own good);
  let dup_on_path = [ t_node (nm 1 3) 1 1 [ t_node (nm 1 3) 2 1 [] ] ] in
  check_bool "ancestor duplicate rejected" false
    (Core.History_tree.simply_labelled ~own dup_on_path);
  let has_own = [ t_node own 1 1 [] ] in
  check_bool "own name rejected" false (Core.History_tree.simply_labelled ~own has_own);
  let dup_siblings = [ t_node (nm 1 3) 1 1 []; t_node (nm 1 3) 2 1 [] ] in
  check_bool "sibling duplicate detected" false
    (Core.History_tree.sibling_names_distinct dup_siblings);
  (* duplicates on different branches are fine *)
  let cousins =
    [ t_node (nm 1 3) 1 1 [ t_node (nm 3 3) 2 1 [] ]; t_node (nm 2 3) 3 1 [ t_node (nm 3 3) 4 1 [] ] ]
  in
  check_bool "cousins may share names" true (Core.History_tree.simply_labelled ~own cousins)

let qcheck_tree_invariants_under_merges =
  QCheck.Test.make ~name:"merge maintains simple labelling, sibling uniqueness, depth <= h"
    ~count:100
    QCheck.(pair small_int (list (pair (int_bound 5) (int_bound 5))))
    (fun (seed, meetings) ->
      let agents = 6 and h = 3 in
      let rng = Prng.create ~seed in
      let names = Array.init agents (fun i -> Core.Name.of_int ~bits:i ~len:3) in
      let trees = Array.make agents Core.History_tree.empty in
      List.iter
        (fun (i, j) ->
          let i = i mod agents and j = j mod agents in
          if i <> j then begin
            let sync = 1 + Prng.int rng 100 in
            let ti = trees.(i) and tj = trees.(j) in
            trees.(i) <-
              Core.History_tree.decrement_timers
                (Core.History_tree.merge ~h ~own:names.(i) ~partner:names.(j) ~partner_tree:tj
                   ~sync ~timer:20 ti);
            trees.(j) <-
              Core.History_tree.decrement_timers
                (Core.History_tree.merge ~h ~own:names.(j) ~partner:names.(i) ~partner_tree:ti
                   ~sync ~timer:20 tj)
          end)
        meetings;
      Array.for_all2
        (fun own tree ->
          Core.History_tree.simply_labelled ~own tree
          && Core.History_tree.sibling_names_distinct tree
          && Core.History_tree.depth tree <= h)
        names trees)

(* ------------------------------------------------------------------ *)
(* Silent-n-state-SSR                                                  *)

let test_silent_transition_rule () =
  let n = 5 in
  let p = Core.Silent_n_state.protocol ~n in
  let rng = Prng.create ~seed:1 in
  let s r = Core.Silent_n_state.state_of_rank0 ~n r in
  let a, b = p.Engine.Protocol.transition rng (s 2) (s 2) in
  check_bool "initiator unchanged" true (p.Engine.Protocol.equal a (s 2));
  check_bool "responder bumped" true (p.Engine.Protocol.equal b (s 3));
  let a, b = p.Engine.Protocol.transition rng (s 4) (s 4) in
  check_bool "wraps mod n" true (p.Engine.Protocol.equal b (s 0));
  ignore a;
  let a, b = p.Engine.Protocol.transition rng (s 1) (s 2) in
  check_bool "distinct ranks null" true
    (p.Engine.Protocol.equal a (s 1) && p.Engine.Protocol.equal b (s 2))

let test_silent_observation () =
  let n = 4 in
  let p = Core.Silent_n_state.protocol ~n in
  Alcotest.(check (option int)) "rank is 1-based" (Some 1)
    (p.Engine.Protocol.rank (Core.Silent_n_state.state_of_rank0 ~n 0));
  check_bool "rank0 is leader" true
    (p.Engine.Protocol.is_leader (Core.Silent_n_state.state_of_rank0 ~n 0));
  check_bool "rank1 is not" false
    (p.Engine.Protocol.is_leader (Core.Silent_n_state.state_of_rank0 ~n 1))

let test_silent_metadata () =
  let p = Core.Silent_n_state.protocol ~n:7 in
  check_bool "deterministic" true p.Engine.Protocol.deterministic;
  check_int "n" 7 p.Engine.Protocol.n;
  check_int "states" 7 (Core.Silent_n_state.states ~n:7)

let converge ?(task = Engine.Runner.Ranking) ~protocol ~init ~seed ~expected_time () =
  let n = protocol.Engine.Protocol.n in
  let rng = Prng.create ~seed in
  let sim = Engine.Sim.make ~protocol ~init ~rng in
  let o =
    Engine.Runner.run_to_stability ~task
      ~max_interactions:(Engine.Runner.default_horizon ~n ~expected_time)
      ~confirm_interactions:(Engine.Runner.default_confirm ~n)
      (Engine.Exec.of_sim sim)
  in
  (o, sim)

let test_silent_converges_all_scenarios () =
  let n = 12 in
  let protocol = Core.Silent_n_state.protocol ~n in
  List.iter
    (fun (scenario, gen) ->
      let rng = Prng.create ~seed:55 in
      let o, sim =
        converge ~protocol ~init:(gen rng) ~seed:56 ~expected_time:(float_of_int (n * n)) ()
      in
      check_bool (scenario ^ " converges") true o.Engine.Runner.converged;
      check_bool (scenario ^ " silent at end") true
        (Engine.Silence.configuration_is_silent protocol (Engine.Sim.snapshot sim)))
    (Core.Scenarios.silent_catalogue ~n)

let test_silent_state_of_rank0_bounds () =
  Alcotest.check_raises "out of range"
    (Invalid_argument "Silent_n_state.state_of_rank0: rank out of range") (fun () ->
      ignore (Core.Silent_n_state.state_of_rank0 ~n:4 4))

(* ------------------------------------------------------------------ *)
(* Reset (Propagate-Reset)                                             *)

(* Payload counts the ticks it received, so each hook is observable. *)
type probe = { propagating_ticks : int; dormant_ticks : int }

let probe_spec ~r_max ~d_max : (string, probe) Core.Reset.spec =
  {
    Core.Reset.r_max;
    d_max;
    recruit_payload = (fun _ -> { propagating_ticks = 0; dormant_ticks = 0 });
    propagating_tick = (fun _ p -> { p with propagating_ticks = p.propagating_ticks + 1 });
    dormant_tick = (fun _ p -> { p with dormant_ticks = p.dormant_ticks + 1 });
    resetting_pair = (fun _ x y -> (x, y));
    awaken = (fun _ p -> Printf.sprintf "awake(%d,%d)" p.propagating_ticks p.dormant_ticks);
  }

let fresh_probe = { propagating_ticks = 0; dormant_ticks = 0 }

let test_reset_trigger () =
  let spec = probe_spec ~r_max:5 ~d_max:7 in
  match Core.Reset.trigger ~spec fresh_probe with
  | Core.Reset.Resetting r ->
      check_int "resetcount R_max" 5 r.Core.Reset.resetcount;
      check_int "delaytimer D_max" 7 r.Core.Reset.delaytimer
  | Core.Reset.Computing _ -> Alcotest.fail "trigger must reset"

let test_reset_recruits_computing () =
  let spec = probe_spec ~r_max:5 ~d_max:7 in
  let rng = Prng.create ~seed:1 in
  let propagating =
    Core.Reset.Resetting { Core.Reset.resetcount = 3; delaytimer = 7; payload = fresh_probe }
  in
  let a, b = Core.Reset.step ~spec rng propagating (Core.Reset.Computing "busy") in
  (match b with
  | Core.Reset.Resetting r -> check_int "recruit takes count-1" 2 r.Core.Reset.resetcount
  | Core.Reset.Computing _ -> Alcotest.fail "computing agent must be recruited");
  match a with
  | Core.Reset.Resetting r -> check_int "recruiter decrements" 2 r.Core.Reset.resetcount
  | Core.Reset.Computing _ -> Alcotest.fail "recruiter must stay resetting"

let test_reset_joint_max_rule () =
  let spec = probe_spec ~r_max:9 ~d_max:7 in
  let rng = Prng.create ~seed:1 in
  let mk c = Core.Reset.Resetting { Core.Reset.resetcount = c; delaytimer = 7; payload = fresh_probe } in
  match Core.Reset.step ~spec rng (mk 9) (mk 4) with
  | Core.Reset.Resetting x, Core.Reset.Resetting y ->
      check_int "both take max-1" 8 x.Core.Reset.resetcount;
      check_int "both take max-1 (responder)" 8 y.Core.Reset.resetcount
  | _ -> Alcotest.fail "both must remain resetting"

let test_reset_dormant_wakes_on_computing () =
  let spec = probe_spec ~r_max:5 ~d_max:7 in
  let rng = Prng.create ~seed:1 in
  let dormant =
    Core.Reset.Resetting { Core.Reset.resetcount = 0; delaytimer = 5; payload = fresh_probe }
  in
  match Core.Reset.step ~spec rng dormant (Core.Reset.Computing "alive") with
  | Core.Reset.Computing s, Core.Reset.Computing s' ->
      check_bool "woke via epidemic" true (String.length s > 0);
      Alcotest.(check string) "partner untouched" "alive" s'
  | _ -> Alcotest.fail "dormant agent must awaken next to a computing one"

let test_reset_dormant_timer_countdown () =
  let spec = probe_spec ~r_max:5 ~d_max:7 in
  let rng = Prng.create ~seed:1 in
  let mk d = Core.Reset.Resetting { Core.Reset.resetcount = 0; delaytimer = d; payload = fresh_probe } in
  (match Core.Reset.step ~spec rng (mk 5) (mk 5) with
  | Core.Reset.Resetting x, Core.Reset.Resetting y ->
      check_int "timer decrements" 4 x.Core.Reset.delaytimer;
      check_int "timer decrements (responder)" 4 y.Core.Reset.delaytimer;
      check_int "dormant tick ran" 1 x.Core.Reset.payload.dormant_ticks
  | _ -> Alcotest.fail "both should stay dormant");
  (* timer hitting zero awakens *)
  match Core.Reset.step ~spec rng (mk 1) (mk 5) with
  | Core.Reset.Computing _, Core.Reset.Resetting _ -> ()
  | _ -> Alcotest.fail "expired timer must awaken"

let test_reset_just_became_dormant_gets_full_delay () =
  let spec = probe_spec ~r_max:5 ~d_max:7 in
  let rng = Prng.create ~seed:1 in
  let about_to_sleep =
    Core.Reset.Resetting { Core.Reset.resetcount = 1; delaytimer = 2; payload = fresh_probe }
  in
  let dormant =
    Core.Reset.Resetting { Core.Reset.resetcount = 0; delaytimer = 6; payload = fresh_probe }
  in
  match Core.Reset.step ~spec rng about_to_sleep dormant with
  | Core.Reset.Resetting x, Core.Reset.Resetting y ->
      check_int "count fell to 0" 0 x.Core.Reset.resetcount;
      check_int "fresh delaytimer" 7 x.Core.Reset.delaytimer;
      check_int "already-dormant partner keeps counting" 5 y.Core.Reset.delaytimer
  | _ -> Alcotest.fail "both should be resetting"

let test_reset_dormant_pulled_back_by_propagating () =
  let spec = probe_spec ~r_max:9 ~d_max:7 in
  let rng = Prng.create ~seed:1 in
  let dormant =
    Core.Reset.Resetting { Core.Reset.resetcount = 0; delaytimer = 3; payload = fresh_probe }
  in
  let propagating =
    Core.Reset.Resetting { Core.Reset.resetcount = 5; delaytimer = 7; payload = fresh_probe }
  in
  match Core.Reset.step ~spec rng dormant propagating with
  | Core.Reset.Resetting x, Core.Reset.Resetting y ->
      check_int "dormant pulled back to propagating" 4 x.Core.Reset.resetcount;
      check_int "propagating tick ran" 1 x.Core.Reset.payload.propagating_ticks;
      check_int "partner too" 4 y.Core.Reset.resetcount
  | _ -> Alcotest.fail "both should be resetting"

let test_reset_computing_pair_unchanged () =
  let spec = probe_spec ~r_max:5 ~d_max:7 in
  let rng = Prng.create ~seed:1 in
  match Core.Reset.step ~spec rng (Core.Reset.Computing "x") (Core.Reset.Computing "y") with
  | Core.Reset.Computing x, Core.Reset.Computing y ->
      Alcotest.(check string) "x" "x" x;
      Alcotest.(check string) "y" "y" y
  | _ -> Alcotest.fail "computing pair must be untouched"

let test_reset_full_wave () =
  (* One triggered agent among computing ones: everyone must reset exactly
     once, and the population must return to computing. *)
  let n = 64 in
  let r_max = 16 and d_max = 24 in
  let awakenings = ref 0 in
  let spec =
    {
      Core.Reset.r_max;
      d_max;
      recruit_payload = (fun _ -> fresh_probe);
      propagating_tick = (fun _ p -> p);
      dormant_tick = (fun _ p -> p);
      resetting_pair = (fun _ x y -> (x, y));
      awaken =
        (fun _ _ ->
          incr awakenings;
          "done");
    }
  in
  let protocol : (string, probe) Core.Reset.role Engine.Protocol.t =
    {
      Engine.Protocol.name = "reset-wave";
      n;
      transition =
        (fun rng a b ->
          match (a, b) with
          | Core.Reset.Computing _, Core.Reset.Computing _ -> (a, b)
          | _ -> Core.Reset.step ~spec rng a b);
      deterministic = true;
      equal = ( = );
      pp = (fun fmt _ -> Format.pp_print_string fmt "_");
      rank = (fun _ -> None);
      is_leader = (fun _ -> false);
    }
  in
  let init =
    Array.init n (fun i ->
        if i = 0 then Core.Reset.trigger ~spec fresh_probe else Core.Reset.Computing "old")
  in
  let exec =
    Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng:(Prng.create ~seed:21) ()
  in
  let all_computing () =
    Array.for_all
      (function Core.Reset.Computing _ -> true | Core.Reset.Resetting _ -> false)
      (Engine.Exec.snapshot exec)
  in
  Engine.Runner.run_while exec ~max_interactions:(500 * n) (fun () -> not (all_computing ()));
  check_bool "wave completes" true (all_computing ());
  check_int "everyone reset exactly once" n !awakenings

(* ------------------------------------------------------------------ *)
(* Optimal-Silent-SSR                                                  *)

let optimal_ctx n =
  let params = Core.Params.optimal_silent n in
  (params, Core.Optimal_silent.protocol ~params ~n ())

let test_optimal_recruitment () =
  let n = 12 in
  let _, p = optimal_ctx n in
  let rng = Prng.create ~seed:1 in
  let settled = Core.Optimal_silent.settled ~rank:3 ~children:0 in
  let unsettled = Core.Optimal_silent.unsettled ~errorcount:100 in
  match p.Engine.Protocol.transition rng settled unsettled with
  | a, b ->
      Alcotest.(check (option int)) "recruiter keeps rank" (Some 3) (p.Engine.Protocol.rank a);
      Alcotest.(check (option int)) "child gets 2r" (Some 6) (p.Engine.Protocol.rank b);
      (* second child gets 2r+1 *)
      let unsettled2 = Core.Optimal_silent.unsettled ~errorcount:100 in
      let _, c = p.Engine.Protocol.transition rng a unsettled2 in
      Alcotest.(check (option int)) "second child gets 2r+1" (Some 7) (p.Engine.Protocol.rank c)

let test_optimal_recruitment_boundary () =
  let n = 12 in
  let _, p = optimal_ctx n in
  let rng = Prng.create ~seed:1 in
  (* rank 6: child 12 <= 12 allowed, child 13 > 12 forbidden *)
  let s6 = Core.Optimal_silent.settled ~rank:6 ~children:0 in
  let u () = Core.Optimal_silent.unsettled ~errorcount:100 in
  let s6', first = p.Engine.Protocol.transition rng s6 (u ()) in
  Alcotest.(check (option int)) "child 12 assigned" (Some 12) (p.Engine.Protocol.rank first);
  let _, second = p.Engine.Protocol.transition rng s6' (u ()) in
  Alcotest.(check (option int)) "child 13 never assigned" None (p.Engine.Protocol.rank second);
  (* leaf rank 7: 14 > 12, recruits nothing *)
  let s7 = Core.Optimal_silent.settled ~rank:7 ~children:0 in
  let _, still_unsettled = p.Engine.Protocol.transition rng s7 (u ()) in
  Alcotest.(check (option int)) "leaf recruits nothing" None
    (p.Engine.Protocol.rank still_unsettled)

let test_optimal_collision_triggers_reset () =
  let n = 8 in
  let _, p = optimal_ctx n in
  let rng = Prng.create ~seed:1 in
  let s = Core.Optimal_silent.settled ~rank:5 ~children:1 in
  match p.Engine.Protocol.transition rng s s with
  | Core.Reset.Resetting a, Core.Reset.Resetting b ->
      check_bool "both leaders" true (a.Core.Reset.payload && b.Core.Reset.payload);
      check_bool "full resetcount" true (a.Core.Reset.resetcount > 0)
  | _ -> Alcotest.fail "rank collision must trigger a reset"

let test_optimal_starvation_triggers_reset () =
  let n = 8 in
  let _, p = optimal_ctx n in
  let rng = Prng.create ~seed:1 in
  let hungry = Core.Optimal_silent.unsettled ~errorcount:1 in
  let bystander = Core.Optimal_silent.settled ~rank:7 ~children:2 in
  match p.Engine.Protocol.transition rng bystander hungry with
  | Core.Reset.Resetting _, Core.Reset.Resetting _ -> ()
  | _ -> Alcotest.fail "starved unsettled agent must trigger a reset"

let test_optimal_countdown_decrements () =
  let n = 8 in
  let _, p = optimal_ctx n in
  let rng = Prng.create ~seed:1 in
  (* two unsettled agents with big errorcounts: both decrement, no trigger
     (recruitment impossible between two unsettled) *)
  let u = Core.Optimal_silent.unsettled ~errorcount:50 in
  match p.Engine.Protocol.transition rng u u with
  | Core.Reset.Computing (Core.Optimal_silent.Unsettled a), Core.Reset.Computing (Core.Optimal_silent.Unsettled b) ->
      check_int "a decremented" 49 a.errorcount;
      check_int "b decremented" 49 b.errorcount
  | _ -> Alcotest.fail "both should stay unsettled"

let test_optimal_slow_le_in_reset () =
  let n = 8 in
  let params, p = optimal_ctx n in
  let rng = Prng.create ~seed:1 in
  let dormant leader =
    Core.Optimal_silent.resetting ~leader ~resetcount:0 ~delaytimer:params.Core.Params.d_max
  in
  match p.Engine.Protocol.transition rng (dormant true) (dormant true) with
  | Core.Reset.Resetting a, Core.Reset.Resetting b ->
      check_bool "L,L -> L,F" true (a.Core.Reset.payload && not b.Core.Reset.payload)
  | _ -> Alcotest.fail "dormant pair should stay resetting"

let test_optimal_stable_config_silent () =
  let n = 16 in
  let _, p = optimal_ctx n in
  check_bool "correct config is silent" true
    (Engine.Silence.configuration_is_silent p (Core.Scenarios.optimal_correct ~n))

let test_optimal_converges_all_scenarios () =
  let n = 16 in
  let params, protocol = optimal_ctx n in
  List.iter
    (fun (scenario, gen) ->
      let rng = Prng.create ~seed:91 in
      let o, sim =
        converge ~protocol ~init:(gen rng) ~seed:92 ~expected_time:(float_of_int (30 * n)) ()
      in
      check_bool (scenario ^ " converges") true o.Engine.Runner.converged;
      check_bool (scenario ^ " ranking correct") true (Engine.Sim.ranking_correct sim);
      check_bool (scenario ^ " unique leader") true (Engine.Sim.leader_correct sim);
      check_bool (scenario ^ " silent") true
        (Engine.Silence.configuration_is_silent protocol (Engine.Sim.snapshot sim)))
    (Core.Scenarios.optimal_catalogue ~params ~n)

let test_optimal_states_linear () =
  let states n = Core.Optimal_silent.states ~params:(Core.Params.optimal_silent n) ~n in
  check_bool "positive" true (states 16 > 0);
  check_bool "O(n): doubling n at most ~doubles states" true
    (states 256 < 3 * states 128)

(* ------------------------------------------------------------------ *)
(* Sublinear-Time-SSR                                                  *)

let sublinear_ctx ~h n =
  let params = Core.Params.sublinear ~h n in
  (params, Core.Sublinear.protocol ~params ~n ~h ())

let test_sublinear_fresh_shape () =
  let params, _ = sublinear_ctx ~h:2 8 in
  let rng = Prng.create ~seed:5 in
  match Core.Sublinear.fresh rng ~params with
  | Core.Reset.Computing c ->
      check_bool "complete name" true
        (Core.Name.is_complete ~width:params.Core.Params.name_bits c.Core.Sublinear.name);
      check_int "singleton roster" 1 (Core.Roster.cardinal c.Core.Sublinear.roster);
      check_bool "own name in roster" true
        (Core.Roster.mem c.Core.Sublinear.name c.Core.Sublinear.roster);
      check_int "empty tree" 0 (Core.History_tree.node_count c.Core.Sublinear.tree)
  | Core.Reset.Resetting _ -> Alcotest.fail "fresh agents compute"

let test_sublinear_direct_collision () =
  let params, _ = sublinear_ctx ~h:2 8 in
  let name = Core.Name.of_int ~bits:5 ~len:params.Core.Params.name_bits in
  let mk name =
    {
      Core.Sublinear.name;
      rank = 1;
      roster = Core.Roster.singleton name;
      tree = Core.History_tree.empty;
    }
  in
  check_bool "equal names collide" true (Core.Sublinear.detect_name_collision ~params (mk name) (mk name));
  let other = Core.Name.of_int ~bits:6 ~len:params.Core.Params.name_bits in
  check_bool "distinct names with empty trees do not" false
    (Core.Sublinear.detect_name_collision ~params (mk name) (mk other))

let test_sublinear_ghost_triggers_reset () =
  let n = 4 in
  let params, p = sublinear_ctx ~h:1 n in
  let rng = Prng.create ~seed:6 in
  let width = params.Core.Params.name_bits in
  let name i = Core.Name.of_int ~bits:i ~len:width in
  (* two agents whose rosters together hold n+1 names: ghost must fire *)
  let mk own roster = Core.Sublinear.collecting
      { Core.Sublinear.name = own; rank = 1; roster = Core.Roster.of_list roster;
        tree = Core.History_tree.empty }
  in
  let a = mk (name 0) [ name 0; name 1; name 2 ] in
  let b = mk (name 3) [ name 3; name 4 ] in
  match p.Engine.Protocol.transition rng a b with
  | Core.Reset.Resetting _, Core.Reset.Resetting _ -> ()
  | _ -> Alcotest.fail "ghost overflow must trigger a reset"

let test_sublinear_rank_assignment () =
  let n = 3 in
  let params, p = sublinear_ctx ~h:1 n in
  let rng = Prng.create ~seed:7 in
  let width = params.Core.Params.name_bits in
  let name i = Core.Name.of_int ~bits:i ~len:width in
  let mk own roster = Core.Sublinear.collecting
      { Core.Sublinear.name = own; rank = 1; roster = Core.Roster.of_list roster;
        tree = Core.History_tree.empty }
  in
  (* union of rosters = {0,1,2} = all three names: ranks assigned by order *)
  let a = mk (name 2) [ name 2; name 0 ] in
  let b = mk (name 1) [ name 1 ] in
  match p.Engine.Protocol.transition rng a b with
  | sa, sb ->
      Alcotest.(check (option int)) "name 2 gets rank 3" (Some 3) (p.Engine.Protocol.rank sa);
      Alcotest.(check (option int)) "name 1 gets rank 2" (Some 2) (p.Engine.Protocol.rank sb)

let test_sublinear_converges_all_scenarios () =
  List.iter
    (fun h ->
      let n = 8 in
      let params, protocol = sublinear_ctx ~h n in
      List.iter
        (fun (scenario, gen) ->
          let rng = Prng.create ~seed:(100 + h) in
          let o, sim =
            converge ~protocol ~init:(gen rng) ~seed:(200 + h)
              ~expected_time:(float_of_int (params.Core.Params.d_max + (8 * params.Core.Params.t_h) + (4 * n)))
              ()
          in
          let label = Printf.sprintf "h=%d %s" h scenario in
          check_bool (label ^ " converges") true o.Engine.Runner.converged;
          check_bool (label ^ " unique leader") true (Engine.Sim.leader_correct sim))
        (Core.Scenarios.sublinear_catalogue ~params ~n))
    [ 0; 1; 2 ]

let test_sublinear_steady_state_safety () =
  (* The paper's safety condition: from a unique-name configuration the
     protocol must never believe there is a collision. 20k interactions
     with the ranking held correct throughout. *)
  List.iter
    (fun (n, h) ->
      let params, protocol = sublinear_ctx ~h n in
      let rng = Prng.create ~seed:321 in
      let init = Core.Scenarios.sublinear_correct rng ~params ~n in
      let sim = Engine.Sim.make ~protocol ~init ~rng in
      let broken = ref 0 in
      for _ = 1 to 20_000 do
        Engine.Sim.step sim;
        if not (Engine.Sim.ranking_correct sim) then incr broken
      done;
      check_int (Printf.sprintf "n=%d h=%d no false alarms" n h) 0 !broken)
    [ (8, 1); (8, 2); (6, 3) ]

let test_sublinear_tree_invariants_during_run () =
  let n = 8 and h = 2 in
  let params, protocol = sublinear_ctx ~h n in
  let rng = Prng.create ~seed:77 in
  let init = Core.Scenarios.sublinear_fresh rng ~params ~n in
  let exec = Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init ~rng () in
  for k = 1 to 50 do
    Engine.Runner.run_while exec ~max_interactions:(100 * k) (fun () -> true);
    for i = 0 to n - 1 do
      match Engine.Exec.state exec i with
      | Core.Reset.Computing c ->
          check_bool "simply labelled" true
            (Core.History_tree.simply_labelled ~own:c.Core.Sublinear.name c.Core.Sublinear.tree);
          check_bool "depth bound" true (Core.History_tree.depth c.Core.Sublinear.tree <= h);
          check_bool "roster bound" true (Core.Roster.cardinal c.Core.Sublinear.roster <= n)
      | Core.Reset.Resetting r ->
          check_bool "partial name bounded" true
            (Core.Name.length r.Core.Reset.payload <= params.Core.Params.name_bits)
    done
  done

let test_sublinear_log2_states_monotone () =
  let v ~h n = Core.Sublinear.log2_states ~params:(Core.Params.sublinear ~h n) ~n in
  check_bool "grows with h" true (v ~h:2 16 > v ~h:1 16);
  check_bool "grows with n" true (v ~h:1 32 > v ~h:1 16);
  check_bool "huge for log regime" true (v ~h:4 16 > 1000.0)

let test_sublinear_h_mismatch () =
  let params = Core.Params.sublinear ~h:2 8 in
  Alcotest.check_raises "h mismatch" (Invalid_argument "Sublinear.protocol: params.h differs from h")
    (fun () -> ignore (Core.Sublinear.protocol ~params ~n:8 ~h:3 ()))

(* ------------------------------------------------------------------ *)
(* Leader election wrapper                                             *)

let test_immobilize () =
  (* A protocol whose transition hands the leader bit to the partner:
     state true = leader. Immobilized, the bit must stay put. *)
  let swapping : bool Engine.Protocol.t =
    {
      Engine.Protocol.name = "swap";
      n = 2;
      transition = (fun _ a b -> (b, a));
      deterministic = true;
      equal = Bool.equal;
      pp = Format.pp_print_bool;
      rank = (fun s -> if s then Some 1 else None);
      is_leader = Fun.id;
    }
  in
  let fixed = Core.Leader_election.immobilize swapping in
  let rng = Prng.create ~seed:1 in
  let a, b = fixed.Engine.Protocol.transition rng true false in
  check_bool "leader stays with initiator" true a;
  check_bool "follower stays follower" false b;
  let a, b = fixed.Engine.Protocol.transition rng false true in
  check_bool "follower stays follower (responder leader)" false a;
  check_bool "leader stays with responder" true b

let test_leader_indices () =
  let n = 4 in
  let p = Core.Baseline.protocol ~n in
  let config = [| Core.Baseline.Follower; Core.Baseline.Leader; Core.Baseline.Follower; Core.Baseline.Leader |] in
  Alcotest.(check (list int)) "indices" [ 1; 3 ] (Core.Leader_election.leader_indices p config)

(* ------------------------------------------------------------------ *)
(* Baseline                                                            *)

let test_baseline_transition () =
  let p = Core.Baseline.protocol ~n:4 in
  let rng = Prng.create ~seed:1 in
  let l = Core.Baseline.Leader and f = Core.Baseline.Follower in
  Alcotest.(check bool) "LL kills one" true (p.Engine.Protocol.transition rng l l = (l, f));
  Alcotest.(check bool) "LF null" true (p.Engine.Protocol.transition rng l f = (l, f));
  Alcotest.(check bool) "FF null" true (p.Engine.Protocol.transition rng f f = (f, f))

let test_baseline_converges_from_all_leaders () =
  let n = 32 in
  let protocol = Core.Baseline.protocol ~n in
  let o, sim =
    converge ~task:Engine.Runner.Leader ~protocol ~init:(Core.Baseline.all_leaders ~n) ~seed:31
      ~expected_time:(float_of_int n) ()
  in
  check_bool "converges" true o.Engine.Runner.converged;
  check_int "one leader" 1 (Engine.Sim.leader_count sim)

let test_baseline_stuck_from_all_followers () =
  let n = 8 in
  let protocol = Core.Baseline.protocol ~n in
  let exec =
    Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init:(Core.Baseline.all_followers ~n)
      ~rng:(Prng.create ~seed:3) ()
  in
  Engine.Runner.run_while exec ~max_interactions:10_000 (fun () -> true);
  check_int "never creates a leader" 0 (Engine.Exec.leader_count exec)

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)

let test_scenarios_sizes () =
  let n = 10 in
  let rng = Prng.create ~seed:41 in
  List.iter
    (fun (name, gen) -> check_int (name ^ " size") n (Array.length (gen rng)))
    (Core.Scenarios.silent_catalogue ~n);
  let params = Core.Params.optimal_silent n in
  List.iter
    (fun (name, gen) -> check_int (name ^ " size") n (Array.length (gen rng)))
    (Core.Scenarios.optimal_catalogue ~params ~n);
  let params = Core.Params.sublinear ~h:1 n in
  List.iter
    (fun (name, gen) -> check_int (name ^ " size") n (Array.length (gen rng)))
    (Core.Scenarios.sublinear_catalogue ~params ~n)

let test_scenario_worst_case_shape () =
  let n = 8 in
  let config = Core.Scenarios.silent_worst_case ~n in
  let counts = Array.make n 0 in
  Array.iter (fun s -> counts.((s : Core.Silent_n_state.state :> int)) <- counts.((s :> int)) + 1) config;
  check_int "two at rank 0" 2 counts.(0);
  check_int "none at top rank" 0 counts.(n - 1);
  for r = 1 to n - 2 do
    check_int (Printf.sprintf "one at rank %d" r) 1 counts.(r)
  done

let test_scenario_optimal_correct_is_correct () =
  let n = 12 in
  let p = Core.Optimal_silent.protocol ~n () in
  let m = Engine.Monitor.create p (Core.Scenarios.optimal_correct ~n) in
  check_bool "monitor approves" true (Engine.Monitor.ranking_correct m)

let test_scenario_name_collision_shape () =
  let n = 8 in
  let params = Core.Params.sublinear ~h:1 n in
  let rng = Prng.create ~seed:17 in
  let config = Core.Scenarios.sublinear_name_collision rng ~params ~n in
  let names =
    Array.to_list config
    |> List.filter_map (function
         | Core.Reset.Computing c -> Some c.Core.Sublinear.name
         | Core.Reset.Resetting _ -> None)
  in
  check_int "all collecting" n (List.length names);
  let distinct = List.sort_uniq Core.Name.compare names in
  check_int "exactly one duplicate" (n - 1) (List.length distinct)

let test_scenario_ghost_shape () =
  let n = 6 in
  let params = Core.Params.sublinear ~h:1 n in
  let rng = Prng.create ~seed:18 in
  let config = Core.Scenarios.sublinear_ghost rng ~params ~n in
  (* every roster holds the same ghost that is nobody's name *)
  let names =
    Array.to_list config
    |> List.filter_map (function
         | Core.Reset.Computing c -> Some c.Core.Sublinear.name
         | Core.Reset.Resetting _ -> None)
  in
  let rosters =
    Array.to_list config
    |> List.filter_map (function
         | Core.Reset.Computing c -> Some c.Core.Sublinear.roster
         | Core.Reset.Resetting _ -> None)
  in
  let ghost_candidates =
    List.filter
      (fun g -> not (List.exists (Core.Name.equal g) names))
      (Core.Roster.elements (List.fold_left Core.Roster.union Core.Roster.empty rosters))
  in
  check_int "one ghost" 1 (List.length ghost_candidates)

(* ------------------------------------------------------------------ *)
(* Printers and equality helpers                                       *)

let to_string pp v = Format.asprintf "%a" pp v

let test_printers () =
  check_bool "name eps" true (String.length (Core.Name.to_string Core.Name.empty) > 0);
  let n = 8 in
  let settled = Core.Optimal_silent.settled ~rank:3 ~children:1 in
  check_bool "optimal pp mentions rank" true
    (String.length (to_string Core.Optimal_silent.pp settled) > 0);
  let resetting = Core.Optimal_silent.resetting ~leader:true ~resetcount:2 ~delaytimer:5 in
  let s = to_string Core.Optimal_silent.pp resetting in
  check_bool "resetting pp mentions count" true (String.length s > 0);
  let params = Core.Params.sublinear ~h:1 n in
  let rng = Prng.create ~seed:3 in
  let fresh = Core.Sublinear.fresh rng ~params in
  check_bool "sublinear pp" true (String.length (to_string Core.Sublinear.pp fresh) > 0);
  let roster = Core.Roster.of_list [ nm 1 3; nm 2 3 ] in
  check_bool "roster pp" true (String.length (to_string Core.Roster.pp roster) > 0);
  let tree = [ t_node (nm 1 3) 4 2 [] ] in
  check_bool "tree pp" true (String.length (to_string Core.History_tree.pp tree) > 0);
  check_bool "empty tree pp" true (String.length (to_string Core.History_tree.pp []) > 0)

let test_equalities () =
  let s1 = Core.Optimal_silent.settled ~rank:1 ~children:0 in
  let s2 = Core.Optimal_silent.settled ~rank:1 ~children:1 in
  check_bool "children distinguish" false (Core.Optimal_silent.equal s1 s2);
  let u = Core.Optimal_silent.unsettled ~errorcount:5 in
  check_bool "roles distinguish" false (Core.Optimal_silent.equal s1 u);
  let r1 = Core.Optimal_silent.resetting ~leader:true ~resetcount:2 ~delaytimer:5 in
  let r2 = Core.Optimal_silent.resetting ~leader:false ~resetcount:2 ~delaytimer:5 in
  check_bool "payload distinguishes" false (Core.Optimal_silent.equal r1 r2);
  check_bool "reflexive" true (Core.Optimal_silent.equal r1 r1);
  let params = Core.Params.sublinear ~h:1 8 in
  let rng = Prng.create ~seed:4 in
  let a = Core.Sublinear.fresh rng ~params in
  let b = Core.Sublinear.fresh rng ~params in
  check_bool "sublinear reflexive" true (Core.Sublinear.equal a a);
  check_bool "different names differ" false (Core.Sublinear.equal a b)

(* ------------------------------------------------------------------ *)
(* State space                                                         *)

let test_state_space_rows () =
  let rows = Core.State_space.table1_rows ~n:64 in
  check_int "four rows" 4 (List.length rows);
  List.iter
    (fun r -> check_bool (r.Core.State_space.protocol ^ " log2 positive") true (r.Core.State_space.log2 > 0.0))
    rows

let test_state_space_silent_exact () =
  let r = Core.State_space.silent_n_state ~n:128 in
  Alcotest.(check (option int)) "exact count" (Some 128) r.Core.State_space.exact

let test_count_distinct_visited () =
  let snapshots = [ [| 1; 2; 2 |]; [| 2; 3; 1 |] ] in
  check_int "distinct" 3 (Core.State_space.count_distinct_visited ~equal:Int.equal ~snapshots)

let suite =
  [
    Alcotest.test_case "params optimal" `Quick test_params_optimal;
    Alcotest.test_case "params sublinear" `Quick test_params_sublinear;
    Alcotest.test_case "params t_h decreasing" `Quick test_params_t_h_decreasing;
    Alcotest.test_case "params helpers" `Quick test_params_helpers;
    Alcotest.test_case "params errors" `Quick test_params_errors;
    Alcotest.test_case "name build" `Quick test_name_build;
    Alcotest.test_case "name roundtrip" `Quick test_name_roundtrip;
    Alcotest.test_case "name lexicographic" `Quick test_name_compare_lexicographic;
    Alcotest.test_case "name equal" `Quick test_name_equal;
    Alcotest.test_case "name random" `Quick test_name_random;
    Alcotest.test_case "name errors" `Quick test_name_errors;
    QCheck_alcotest.to_alcotest qcheck_name_order_total;
    Alcotest.test_case "roster basics" `Quick test_roster_basics;
    Alcotest.test_case "roster union" `Quick test_roster_union;
    Alcotest.test_case "roster rank_of" `Quick test_roster_rank_of;
    Alcotest.test_case "roster sorted" `Quick test_roster_elements_sorted;
    QCheck_alcotest.to_alcotest qcheck_roster_rank_is_sorted_position;
    Alcotest.test_case "tree merge basic" `Quick test_tree_merge_basic;
    Alcotest.test_case "tree merge replaces" `Quick test_tree_merge_replaces_existing;
    Alcotest.test_case "tree merge truncates" `Quick test_tree_merge_truncates;
    Alcotest.test_case "tree merge removes own" `Quick test_tree_merge_removes_own;
    Alcotest.test_case "tree merge h0" `Quick test_tree_merge_h0;
    Alcotest.test_case "tree decrement" `Quick test_tree_decrement;
    Alcotest.test_case "tree remove named deep" `Quick test_tree_remove_named_deep;
    Alcotest.test_case "tree paths filter stale" `Quick test_tree_paths_filter_stale;
    Alcotest.test_case "tree paths multiple" `Quick test_tree_paths_multiple;
    Alcotest.test_case "figure 2 left" `Quick test_figure2_left;
    Alcotest.test_case "figure 2 right" `Quick test_figure2_right;
    Alcotest.test_case "figure 2 impostor" `Quick test_figure2_impostor;
    Alcotest.test_case "consistent empty path" `Quick test_consistent_empty_path;
    Alcotest.test_case "tree invariant checkers" `Quick test_tree_invariant_checkers;
    QCheck_alcotest.to_alcotest qcheck_tree_invariants_under_merges;
    Alcotest.test_case "silent transition rule" `Quick test_silent_transition_rule;
    Alcotest.test_case "silent observation" `Quick test_silent_observation;
    Alcotest.test_case "silent metadata" `Quick test_silent_metadata;
    Alcotest.test_case "silent converges (all scenarios)" `Slow test_silent_converges_all_scenarios;
    Alcotest.test_case "silent state bounds" `Quick test_silent_state_of_rank0_bounds;
    Alcotest.test_case "reset trigger" `Quick test_reset_trigger;
    Alcotest.test_case "reset recruits" `Quick test_reset_recruits_computing;
    Alcotest.test_case "reset joint max rule" `Quick test_reset_joint_max_rule;
    Alcotest.test_case "reset dormant wakes on computing" `Quick test_reset_dormant_wakes_on_computing;
    Alcotest.test_case "reset dormant countdown" `Quick test_reset_dormant_timer_countdown;
    Alcotest.test_case "reset fresh delay on dormancy" `Quick test_reset_just_became_dormant_gets_full_delay;
    Alcotest.test_case "reset dormant pulled back" `Quick test_reset_dormant_pulled_back_by_propagating;
    Alcotest.test_case "reset computing pair" `Quick test_reset_computing_pair_unchanged;
    Alcotest.test_case "reset full wave" `Slow test_reset_full_wave;
    Alcotest.test_case "optimal recruitment" `Quick test_optimal_recruitment;
    Alcotest.test_case "optimal recruitment boundary" `Quick test_optimal_recruitment_boundary;
    Alcotest.test_case "optimal collision reset" `Quick test_optimal_collision_triggers_reset;
    Alcotest.test_case "optimal starvation reset" `Quick test_optimal_starvation_triggers_reset;
    Alcotest.test_case "optimal countdown" `Quick test_optimal_countdown_decrements;
    Alcotest.test_case "optimal slow LE in reset" `Quick test_optimal_slow_le_in_reset;
    Alcotest.test_case "optimal stable config silent" `Quick test_optimal_stable_config_silent;
    Alcotest.test_case "optimal converges (all scenarios)" `Slow test_optimal_converges_all_scenarios;
    Alcotest.test_case "optimal states linear" `Quick test_optimal_states_linear;
    Alcotest.test_case "sublinear fresh shape" `Quick test_sublinear_fresh_shape;
    Alcotest.test_case "sublinear direct collision" `Quick test_sublinear_direct_collision;
    Alcotest.test_case "sublinear ghost reset" `Quick test_sublinear_ghost_triggers_reset;
    Alcotest.test_case "sublinear rank assignment" `Quick test_sublinear_rank_assignment;
    Alcotest.test_case "sublinear converges (all scenarios)" `Slow test_sublinear_converges_all_scenarios;
    Alcotest.test_case "sublinear steady-state safety" `Slow test_sublinear_steady_state_safety;
    Alcotest.test_case "sublinear tree invariants in run" `Slow test_sublinear_tree_invariants_during_run;
    Alcotest.test_case "sublinear log2 states monotone" `Quick test_sublinear_log2_states_monotone;
    Alcotest.test_case "sublinear h mismatch" `Quick test_sublinear_h_mismatch;
    Alcotest.test_case "immobilize" `Quick test_immobilize;
    Alcotest.test_case "leader indices" `Quick test_leader_indices;
    Alcotest.test_case "baseline transition" `Quick test_baseline_transition;
    Alcotest.test_case "baseline all leaders" `Quick test_baseline_converges_from_all_leaders;
    Alcotest.test_case "baseline all followers stuck" `Quick test_baseline_stuck_from_all_followers;
    Alcotest.test_case "scenario sizes" `Quick test_scenarios_sizes;
    Alcotest.test_case "scenario worst case shape" `Quick test_scenario_worst_case_shape;
    Alcotest.test_case "scenario optimal correct" `Quick test_scenario_optimal_correct_is_correct;
    Alcotest.test_case "scenario name collision shape" `Quick test_scenario_name_collision_shape;
    Alcotest.test_case "scenario ghost shape" `Quick test_scenario_ghost_shape;
    Alcotest.test_case "printers" `Quick test_printers;
    Alcotest.test_case "equalities" `Quick test_equalities;
    Alcotest.test_case "state space rows" `Quick test_state_space_rows;
    Alcotest.test_case "state space silent exact" `Quick test_state_space_silent_exact;
    Alcotest.test_case "count distinct visited" `Quick test_count_distinct_visited;
  ]
