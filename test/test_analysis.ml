(* Tests for the static-analysis subsystem: scripted PRNG replay, exact
   coin-tree enumeration, configuration combinatorics, the four analyzer
   stages (positive and negative), and trace-level invariant preservation
   on the scenario catalogues. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let stage_of (r : Analysis.Report.t) name =
  match List.find_opt (fun (s : Analysis.Report.stage) -> s.Analysis.Report.stage = name) r.Analysis.Report.stages with
  | Some s -> s
  | None -> Alcotest.failf "report for %s has no stage %s" r.Analysis.Report.key name

let metric_of (s : Analysis.Report.stage) key =
  match List.assoc_opt key s.Analysis.Report.metrics with
  | Some v -> v
  | None -> Alcotest.failf "stage %s has no metric %s" s.Analysis.Report.stage key

let contains ~sub s =
  let ls = String.length s and lsub = String.length sub in
  let rec at i = i + lsub <= ls && (String.sub s i lsub = sub || at (i + 1)) in
  at 0

let rank0 ~n r = Core.Silent_n_state.state_of_rank0 ~n r

(* --- scripted Prng ---------------------------------------------------- *)

let test_scripted_replay () =
  let g = Prng.scripted [ 2; 1 ] in
  check_int "first draw follows the script" 2 (Prng.int g 5);
  check_bool "second draw follows the script" true (Prng.bool g);
  check_int "exhausted script answers 0" 0 (Prng.int g 7);
  Alcotest.(check (list (pair int int)))
    "trace records (choice, bound) in draw order"
    [ (2, 5); (1, 2); (0, 7) ]
    (Prng.script_trace g)

let test_scripted_rejects () =
  let g = Prng.scripted [ 9 ] in
  Alcotest.check_raises "out-of-range choice"
    (Invalid_argument "Prng: scripted choice 9 outside [0, 3)") (fun () -> ignore (Prng.int g 3));
  let g = Prng.scripted [] in
  check_bool "unbounded draws raise" true
    (try
       ignore (Prng.bits64 g);
       false
     with Invalid_argument _ -> true);
  check_bool "float raises" true
    (try
       ignore (Prng.float g);
       false
     with Invalid_argument _ -> true);
  check_bool "split raises" true
    (try
       ignore (Prng.split g);
       false
     with Invalid_argument _ -> true)

(* --- coin-tree enumeration ------------------------------------------- *)

let test_coins_deterministic () =
  match Analysis.Coins.enumerate ~max_draws:0 (fun _rng -> 42) with
  | [ { Analysis.Coins.value = 42; trace = [] } ] -> ()
  | _ -> Alcotest.fail "deterministic function must have exactly one traceless outcome"

let test_coins_full_tree () =
  (* bool, then int 3 only on the true branch: 1 + 3 leaves *)
  let outcomes =
    Analysis.Coins.enumerate ~max_draws:2 (fun rng ->
        if Prng.bool rng then (1, Prng.int rng 3) else (0, 99))
  in
  let values = List.map (fun o -> o.Analysis.Coins.value) outcomes in
  Alcotest.(check (list (pair int int)))
    "all leaves visited exactly once"
    [ (0, 99); (1, 0); (1, 1); (1, 2) ]
    (List.sort compare values);
  check_int "leaf count" 4 (List.length values)

let test_coins_draw_guard () =
  check_bool "overdrawing raises" true
    (try
       ignore (Analysis.Coins.enumerate ~max_draws:1 (fun rng ->
                   ignore (Prng.bool rng);
                   Prng.bool rng));
       false
     with Analysis.Coins.Too_many_draws _ -> true)

(* --- configuration combinatorics ------------------------------------- *)

let test_configs_count_matches_iter () =
  List.iter
    (fun (s, n) ->
      let count = ref 0 in
      Analysis.Configs.iter ~states:s ~n (fun _ -> incr count);
      match Analysis.Configs.count ~states:s ~n with
      | Some c -> check_int (Printf.sprintf "C(%d+%d-1,%d)" s n n) c !count
      | None -> Alcotest.fail "small count must not overflow")
    [ (1, 3); (3, 3); (5, 4); (10, 2) ]

let test_configs_keys_injective () =
  let s = 5 and n = 3 in
  let seen = Hashtbl.create 64 in
  Analysis.Configs.iter ~states:s ~n (fun cfg ->
      let k = Analysis.Configs.key ~states:s ~n cfg in
      check_bool "key unseen" false (Hashtbl.mem seen k);
      Hashtbl.replace seen k ());
  check_int "all keys distinct" 35 (Hashtbl.length seen)

let test_configs_key_is_position () =
  List.iter
    (fun (s, n) ->
      let key = Analysis.Configs.key ~states:s ~n and position = ref 0 in
      Analysis.Configs.iter ~states:s ~n (fun cfg ->
          check_int (Printf.sprintf "key of configuration %d (s=%d, n=%d)" !position s n) !position
            (key cfg);
          incr position))
    [ (1, 3); (2, 70); (3, 3); (5, 4); (10, 2) ]

let test_configs_replace_pair () =
  let cfg = [| 0; 1; 1; 4 |] in
  Alcotest.(check (array int))
    "replaces one occurrence of each and re-sorts"
    [| 0; 1; 2; 3 |]
    (Analysis.Configs.replace_pair cfg ~a:1 ~b:4 ~a':3 ~b':2);
  Alcotest.(check (array int)) "input untouched" [| 0; 1; 1; 4 |] cfg

(* --- the analyzer on the catalogue ----------------------------------- *)

let with_pool f = Engine.Pool.with_pool ~jobs:2 f

let test_catalogue_passes () =
  (* budget high enough for every *_small instance at n = 3, low enough to
     keep the test fast (production-parameter instances skip model check) *)
  with_pool (fun pool ->
      let reports =
        Analysis.Driver.analyze_all ~pool ~max_configs:5_000 ~ns:[ 3 ] Analysis.Registry.entries
      in
      check_int "one report per entry" (List.length Analysis.Registry.entries)
        (List.length reports);
      List.iter
        (fun r ->
          check_bool
            (Printf.sprintf "%s(n=%d) passes: %s" r.Analysis.Report.key r.Analysis.Report.n
               (Analysis.Report.to_json r))
            true (Analysis.Report.ok r))
        reports)

let test_table1_cross_check () =
  with_pool (fun pool ->
      List.iter
        (fun key ->
          let entry = Option.get (Analysis.Registry.find key) in
          let r = Analysis.Driver.analyze_entry ~pool ~max_configs:1 ~n:4 entry in
          let counts = stage_of r "state-count" in
          check_bool (key ^ " state-count passes") true
            (counts.Analysis.Report.status = Analysis.Report.Pass);
          check_int
            (key ^ " Table 1 count equals enumeration")
            (int_of_string (metric_of counts "table1"))
            (int_of_string (metric_of counts "states")))
        [ "silent_n_state"; "optimal_silent" ])

let test_model_check_silent_n_state () =
  (* n-state SSR at n = 3: the unique bottom SCC is the single silent
     correct ranked configuration *)
  with_pool (fun pool ->
      let entry = Option.get (Analysis.Registry.find "silent_n_state") in
      let r = Analysis.Driver.analyze_entry ~pool ~max_configs:100 ~n:3 entry in
      let mc = stage_of r "model-check" in
      check_bool "model check passes" true (mc.Analysis.Report.status = Analysis.Report.Pass);
      check_int "exactly one bottom SCC" 1 (int_of_string (metric_of mc "bottom"));
      check_int "exactly one correct configuration" 1 (int_of_string (metric_of mc "correct")))

let test_model_check_catches_unrestricted_baseline () =
  (* without the >= 1 leader admissibility restriction the all-followers
     configuration is a silent incorrect bottom SCC: the model checker must
     refuse to certify it *)
  let n = 3 in
  let protocol = Core.Baseline.protocol ~n in
  let unrestricted =
    Engine.Enumerable.make ~protocol
      ~states:[ Core.Baseline.Leader; Core.Baseline.Follower ]
      ~correct:(Engine.Enumerable.unique_leader protocol)
      ~expectation:Engine.Enumerable.Silent_stabilizing ()
  in
  with_pool (fun pool ->
      let r =
        Analysis.Driver.analyze_enumerable ~pool ~max_configs:100 ~key:"baseline-unrestricted"
          ~table1:false unrestricted
      in
      let mc = stage_of r "model-check" in
      check_bool "model check fails" true (mc.Analysis.Report.status = Analysis.Report.Fail);
      check_bool "silence certification fails too" true
        ((stage_of r "silence").Analysis.Report.status = Analysis.Report.Fail))

let test_closure_catches_missing_state () =
  (* declaring only states 0..n-2 of the n-state protocol: the transition
     escapes to n-1 and closure must say so *)
  let n = 3 in
  let truncated =
    Engine.Enumerable.make ~protocol:(Core.Silent_n_state.protocol ~n)
      ~states:[ rank0 ~n 0; rank0 ~n 1 ]
      ()
  in
  with_pool (fun pool ->
      let r =
        Analysis.Driver.analyze_enumerable ~pool ~max_configs:100 ~key:"silent-truncated"
          ~table1:false truncated
      in
      check_bool "closure fails" true
        ((stage_of r "closure").Analysis.Report.status = Analysis.Report.Fail);
      check_bool "model check reports the escape" true
        ((stage_of r "model-check").Analysis.Report.status = Analysis.Report.Fail))

let test_lint_catches_false_invariant () =
  let n = 3 in
  let wrong =
    Engine.Enumerable.make ~protocol:(Core.Silent_n_state.protocol ~n)
      ~states:(List.init n (rank0 ~n))
      ~invariants:
        [ { Engine.Enumerable.iname = "bogus"; holds = (fun s -> (s :> int) < n - 1) } ]
      ()
  in
  with_pool (fun pool ->
      let r =
        Analysis.Driver.analyze_enumerable ~pool ~max_configs:100 ~key:"silent-bogus-invariant"
          ~table1:false wrong
      in
      let lint = stage_of r "invariant-lint" in
      check_bool "lint fails" true (lint.Analysis.Report.status = Analysis.Report.Fail);
      check_bool "counterexample names the invariant" true
        (List.exists (fun f -> contains ~sub:{|invariant "bogus"|} f) lint.Analysis.Report.findings))

let test_json_renders () =
  with_pool (fun pool ->
      let entry = Option.get (Analysis.Registry.find "reset") in
      let r = Analysis.Driver.analyze_entry ~pool ~max_configs:1_000 ~n:3 entry in
      let json = Analysis.Report.list_to_json [ r ] in
      check_bool "mentions the key" true (contains ~sub:{|"key":"reset"|} json);
      check_bool "reports overall verdict" true (contains ~sub:{|"ok":true|} json))

(* --- the silence stage, pinned whole ------------------------------------ *)

(* A stage as one line of status and metrics, then its findings. *)
let render (s : Analysis.Report.stage) =
  Printf.sprintf "%s %s (%s)" s.Analysis.Report.stage
    (Analysis.Report.string_of_status s.Analysis.Report.status)
    (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) s.Analysis.Report.metrics))
  :: s.Analysis.Report.findings

let silence_of ?(max_configs = 100) e =
  with_pool (fun pool ->
      stage_of
        (Analysis.Driver.analyze_enumerable ~pool ~max_configs ~key:"pin" ~table1:false e)
        "silence")

let int_protocol ~name ~n transition : int Engine.Protocol.t =
  {
    Engine.Protocol.name;
    n;
    transition = (fun _ a b -> transition a b);
    deterministic = true;
    equal = Int.equal;
    pp = Format.pp_print_int;
    rank = (fun s -> Some (s + 1));
    is_leader = (fun s -> s = 0);
  }

let int_descriptor ~name ~n ~states transition =
  Engine.Enumerable.make ~protocol:(int_protocol ~name ~n transition) ~states ()

let check_stage label expected stage =
  Alcotest.(check (list string)) label expected (render stage)

let test_silence_stage_pinned () =
  let n = 3 in
  let baseline = Core.Baseline.protocol ~n in
  check_stage "unrestricted baseline, n = 3"
    [ "silence FAIL (configs=4, silent=2)"; "silent but incorrect: [3 F]" ]
    (silence_of
       (Engine.Enumerable.make ~protocol:baseline
          ~states:[ Core.Baseline.Leader; Core.Baseline.Follower ]
          ~correct:(Engine.Enumerable.unique_leader baseline)
          ~expectation:Engine.Enumerable.Silent_stabilizing ()));
  check_stage "swap-forever"
    [ "silence FAIL (configs=3, silent=2)"; "silent but incorrect: [2 0]"; "silent but incorrect: [2 1]" ]
    (silence_of
       (int_descriptor ~name:"swap-forever" ~n:2 ~states:[ 0; 1 ] (fun a b ->
            if a <> b then (b, a) else (a, b))));
  check_stage "flip-forever" [ "silence pass (configs=3, silent=1)" ]
    (silence_of
       (int_descriptor ~name:"flip-forever" ~n:2 ~states:[ 0; 1 ] (fun a b ->
            if a = b then (1 - a, 1 - b) else (a, b))));
  let incorrect = List.map (fun c -> "silent but incorrect: " ^ c) in
  check_stage "inert"
    ("silence FAIL (configs=10, silent=10)"
    :: incorrect
         [ "[3 0]"; "[2 0, 1]"; "[2 0, 2]"; "[0, 2 1]"; "[0, 2 2]"; "[3 1]"; "[2 1, 2]"; "[1, 2 2]"; "[3 2]" ])
    (silence_of (int_descriptor ~name:"inert" ~n:3 ~states:[ 0; 1; 2 ] (fun a b -> (a, b))));
  check_stage "inert over four states (findings capped)"
    (("silence FAIL (configs=20, silent=20)"
     :: incorrect
          [
            "[3 0]"; "[2 0, 1]"; "[2 0, 2]"; "[2 0, 3]"; "[0, 2 1]"; "[0, 1, 3]"; "[0, 2 2]";
            "[0, 2, 3]"; "[0, 2 3]"; "[3 1]";
          ])
    @ [ "... and 9 more" ])
    (silence_of (int_descriptor ~name:"inert" ~n:3 ~states:[ 0; 1; 2; 3 ] (fun a b -> (a, b))));
  check_stage "flip-all"
    [
      "silence FAIL (configs=3, silent=0)";
      "expectation is silent-stabilizing but no silent configuration exists";
    ]
    (silence_of
       (int_descriptor ~name:"flip-all" ~n:2 ~states:[ 0; 1 ] (fun a b -> (1 - a, 1 - b))));
  let entry key = (Option.get (Analysis.Registry.find key)).Analysis.Registry.build ~n in
  let (Analysis.Registry.Any sublinear) = entry "sublinear" in
  check_stage "randomized skip"
    [ "silence skip ()"; "randomized protocol: silence is undefined (Engine.Silence)" ]
    (silence_of sublinear);
  let (Analysis.Registry.Any ranks) = entry "silent_n_state" in
  check_stage "budget skip"
    [ "silence skip ()"; "configuration space exceeds budget (3 states, budget 1 configs)" ]
    (silence_of ~max_configs:1 ranks)

(* The silence stage reads the enumeration even when the chain fails
   because the admissible region is not transition-closed; when an
   outcome escapes the declared space there is no enumeration, and it
   repeats model-check's finding. *)
let test_silence_stage_beside_failing_chain () =
  let unclosed =
    Engine.Enumerable.make
      ~protocol:
        (int_protocol ~name:"unclosed" ~n:2 (fun a b -> if a = 0 && b = 0 then (1, 1) else (a, b)))
      ~states:[ 0; 1 ] ~admissible:(Array.exists (fun s -> s = 0)) ()
  in
  check_stage "not transition-closed" [ "silence pass (configs=2, silent=1)" ] (silence_of unclosed);
  let n = 3 in
  let truncated =
    Engine.Enumerable.make ~protocol:(Core.Silent_n_state.protocol ~n)
      ~states:[ rank0 ~n 0; rank0 ~n 1 ]
      ()
  in
  let r =
    with_pool (fun pool ->
        Analysis.Driver.analyze_enumerable ~pool ~max_configs:100 ~key:"silent-truncated"
          ~table1:false truncated)
  in
  let silence = stage_of r "silence" and mc = stage_of r "model-check" in
  check_bool "escape fails the silence stage" true (silence.Analysis.Report.status = Analysis.Report.Fail);
  Alcotest.(check (list string)) "with model-check's finding" mc.Analysis.Report.findings
    silence.Analysis.Report.findings;
  (* a transition that draws although the protocol claims determinism *)
  let drawing =
    Engine.Enumerable.make
      ~protocol:
        {
          (int_protocol ~name:"drawing" ~n:2 (fun a b -> (a, b))) with
          Engine.Protocol.transition = (fun rng a b -> if Prng.bool rng then (b, a) else (a, b));
        }
      ~states:[ 0; 1 ] ~max_draws:1 ()
  in
  check_stage "deterministic claim broken"
    [ "silence FAIL ()"; "state-space escape at (0, 0) (see closure stage)" ]
    (silence_of drawing)

(* The configuration-by-configuration silence scan, kept as the reference
   for the stage: every admissible configuration over the declared states,
   in Configs.iter order, classified by Engine.Silence. Returns the
   admissible count, the silent count and the silent incorrect
   configurations as multisets, e.g. "[2 0, 1]". *)
let reference_silence (e : _ Engine.Enumerable.t) =
  let p = e.Engine.Enumerable.protocol in
  let states = Array.of_list e.Engine.Enumerable.states in
  let render config =
    "["
    ^ String.concat ", "
        (List.map
           (fun (st, m) ->
             let s = Format.asprintf "%a" p.Engine.Protocol.pp st in
             if m = 1 then s else Printf.sprintf "%d %s" m s)
           (Engine.Silence.distinct_states p.Engine.Protocol.equal config))
    ^ "]"
  in
  let admissible = ref 0 and silent = ref 0 and wrong = ref [] in
  Analysis.Configs.iter ~states:(Array.length states) ~n:p.Engine.Protocol.n (fun idx ->
      let config = Array.map (fun i -> states.(i)) idx in
      if e.Engine.Enumerable.admissible config then begin
        incr admissible;
        if Engine.Silence.configuration_is_silent p config then begin
          incr silent;
          if not (e.Engine.Enumerable.correct config) then wrong := render config :: !wrong
        end
      end);
  (!admissible, !silent, List.rev !wrong)

let test_silence_stage_matches_engine_silence () =
  with_pool (fun pool ->
      List.iter
        (fun (n, max_configs) ->
          List.iter
            (fun (entry : Analysis.Registry.entry) ->
              let (Analysis.Registry.Any e) = entry.Analysis.Registry.build ~n in
              let p = e.Engine.Enumerable.protocol in
              let label what = Printf.sprintf "%s(n=%d) %s" entry.Analysis.Registry.key n what in
              let fits =
                match
                  Analysis.Configs.count ~states:(List.length e.Engine.Enumerable.states) ~n
                with
                | Some c -> c <= max_configs
                | None -> false
              in
              let r = Analysis.Driver.analyze_entry ~pool ~max_configs ~n entry in
              let stage = stage_of r "silence" in
              if p.Engine.Protocol.deterministic && fits then begin
                let admissible, silent, wrong = reference_silence e in
                check_int (label "configs") admissible (int_of_string (metric_of stage "configs"));
                check_int (label "silent") silent (int_of_string (metric_of stage "silent"));
                check_int (label "absorbing") silent
                  (Analysis.Model_check.absorbing (Analysis.Model_check.chain ~pool e));
                let missing =
                  if e.Engine.Enumerable.expectation = Engine.Enumerable.Silent_stabilizing && silent = 0
                  then [ "expectation is silent-stabilizing but no silent configuration exists" ]
                  else []
                in
                let total = List.length wrong + List.length missing in
                let shown =
                  List.filteri (fun i _ -> i < Analysis.Report.max_findings) wrong
                  |> List.map (fun c -> "silent but incorrect: " ^ c)
                in
                let more =
                  if total > Analysis.Report.max_findings then
                    [ Printf.sprintf "... and %d more" (total - Analysis.Report.max_findings) ]
                  else []
                in
                Alcotest.(check (list string)) (label "findings") (shown @ missing @ more)
                  stage.Analysis.Report.findings;
                check_bool (label "status") (total = 0)
                  (stage.Analysis.Report.status = Analysis.Report.Pass)
              end
              else
                check_bool (label "skips") true
                  (stage.Analysis.Report.status = Analysis.Report.Skip))
            Analysis.Registry.entries)
        [ (3, Analysis.Driver.default_max_configs); (4, 5_000) ])

(* --- silence classification edge cases -------------------------------- *)

let test_silence_single_agent_vacuous () =
  let p = Core.Silent_n_state.protocol ~n:2 in
  check_bool "one agent has no ordered pair: silent" true
    (Engine.Silence.configuration_is_silent p [| rank0 ~n:2 0 |])

let test_silence_single_state_multiplicity () =
  let n = 3 in
  let p = Core.Silent_n_state.protocol ~n in
  check_bool "same-state pair is applicable at multiplicity 2" false
    (Engine.Silence.configuration_is_silent p (Array.make n (rank0 ~n 1)));
  check_bool "ranked configuration is silent" true
    (Engine.Silence.configuration_is_silent p (Array.init n (rank0 ~n)))

let test_silence_asymmetric_pair () =
  (* (s1, s0) is productive but (s0, s1) is not: the responder role must be
     tried even when each state has multiplicity 1 *)
  let n = 2 in
  let s0 = rank0 ~n 0 and s1 = rank0 ~n 1 in
  let p =
    {
      (Core.Silent_n_state.protocol ~n) with
      Engine.Protocol.name = "asymmetric-probe";
      transition = (fun _rng a b -> if a = s1 && b = s0 then (s1, s1) else (a, b));
    }
  in
  check_bool "asymmetric productive pair detected" false
    (Engine.Silence.configuration_is_silent p [| s0; s1 |]);
  check_bool "productive order only" false
    (Engine.Silence.configuration_is_silent p [| s1; s0 |])

let test_silence_rejects_randomized () =
  let params = Core.Sublinear.analysis_params ~n:3 in
  let p = Core.Sublinear.protocol ~params ~n:3 ~h:0 () in
  let init = Core.Scenarios.sublinear_fresh (Prng.create ~seed:5) ~params ~n:3 in
  Alcotest.check_raises "randomized protocol rejected"
    (Invalid_argument "Silence.configuration_is_silent: protocol is randomized") (fun () ->
      ignore (Engine.Silence.configuration_is_silent p init))

(* --- Protocol.validate ------------------------------------------------ *)

let test_validate_rank_range () =
  let n = 3 in
  let p = Core.Silent_n_state.protocol ~n in
  check_bool "in-range config accepted" true
    (try
       Engine.Protocol.validate ~config:(Array.init n (rank0 ~n)) p;
       true
     with Invalid_argument _ -> false);
  let shifted =
    {
      p with
      Engine.Protocol.rank = (fun (s : Core.Silent_n_state.state) -> Some ((s :> int) + 10));
    }
  in
  check_bool "out-of-range rank rejected" true
    (try
       Engine.Protocol.validate ~config:[| rank0 ~n 0 |] shifted;
       false
     with Invalid_argument _ -> true)

let test_validate_leader_consistency () =
  let base = Core.Baseline.protocol ~n:3 in
  let broken = { base with Engine.Protocol.is_leader = (fun _ -> true) } in
  check_bool "leader bit must match rank-1 convention" true
    (try
       Engine.Protocol.validate ~config:[| Core.Baseline.Follower |] broken;
       false
     with Invalid_argument _ -> true)

(* --- trace-level invariant preservation (QCheck) ---------------------- *)

(* One simulation property for all protocols: whenever both agents of an
   interaction satisfied the declared invariants beforehand, they still do
   afterwards. Adversarial scenarios may seed invariant-violating states
   (e.g. oversized rosters); those agents are exempt until repaired. *)
let preserves_invariants (type s) ~(protocol : s Engine.Protocol.t)
    ~(invariants : s Engine.Enumerable.invariant list) ~init ~seed ~steps =
  let rng = Prng.create ~seed in
  let n = protocol.Engine.Protocol.n in
  (* [Sim.make]'s own sampler, recording the pair it draws *)
  let last = ref (-1) in
  let sampler rng =
    last := Prng.distinct_pair_packed rng n;
    !last
  in
  let sim = Engine.Sim.make_with ~sampler ~protocol ~init ~rng in
  let holds s = List.for_all (fun inv -> inv.Engine.Enumerable.holds s) invariants in
  let ok = ref true in
  for _ = 1 to steps do
    let before = Array.init n (Engine.Sim.state sim) in
    Engine.Sim.step sim;
    let i = Prng.pair_fst !last and j = Prng.pair_snd !last in
    if holds before.(i) && holds before.(j) then
      if not (holds (Engine.Sim.state sim i) && holds (Engine.Sim.state sim j)) then ok := false
  done;
  !ok

let qcheck_silent_trace_invariants =
  QCheck.Test.make ~name:"silent_n_state scenarios never break declared invariants" ~count:20
    QCheck.(pair (int_range 3 16) small_int)
    (fun (n, seed) ->
      let e = Core.Silent_n_state.enumerable ~n in
      let catalogue = Core.Scenarios.silent_catalogue ~n in
      List.for_all
        (fun (_, gen) ->
          preserves_invariants ~protocol:e.Engine.Enumerable.protocol
            ~invariants:e.Engine.Enumerable.invariants
            ~init:(gen (Prng.create ~seed:(seed + 1)))
            ~seed ~steps:(50 * n))
        catalogue)

let qcheck_optimal_trace_invariants =
  QCheck.Test.make ~name:"optimal_silent scenarios never break declared invariants" ~count:10
    QCheck.(pair (int_range 3 12) small_int)
    (fun (n, seed) ->
      let params = Core.Params.optimal_silent n in
      let e = Core.Optimal_silent.enumerable ~params ~n () in
      let catalogue = Core.Scenarios.optimal_catalogue ~params ~n in
      List.for_all
        (fun (_, gen) ->
          preserves_invariants ~protocol:e.Engine.Enumerable.protocol
            ~invariants:e.Engine.Enumerable.invariants
            ~init:(gen (Prng.create ~seed:(seed + 1)))
            ~seed ~steps:(60 * n))
        catalogue)

let qcheck_sublinear_trace_invariants =
  (* production parameters with history trees (H = 1): the enumerable
     descriptor only covers H = 0, but the invariant list is parameter-
     generic and must hold along any trace *)
  QCheck.Test.make ~name:"sublinear scenarios never break declared invariants" ~count:6
    QCheck.(pair (int_range 4 8) small_int)
    (fun (n, seed) ->
      let params = Core.Params.sublinear ~h:1 n in
      let protocol = Core.Sublinear.protocol ~params ~n ~h:1 () in
      let invariants = Core.Sublinear.invariants ~params ~n in
      let catalogue = Core.Scenarios.sublinear_catalogue ~params ~n in
      List.for_all
        (fun (_, gen) ->
          preserves_invariants ~protocol ~invariants
            ~init:(gen (Prng.create ~seed:(seed + 1)))
            ~seed ~steps:(60 * n))
        catalogue)

let qcheck_loose_trace_invariants =
  QCheck.Test.make ~name:"loose timers stay in range from uniform starts" ~count:20
    QCheck.(pair (int_range 3 16) small_int)
    (fun (n, seed) ->
      let t_max = Core.Loose.default_t_max ~upper_bound:n in
      let e = Core.Loose.enumerable ~n ~t_max in
      preserves_invariants ~protocol:e.Engine.Enumerable.protocol
        ~invariants:e.Engine.Enumerable.invariants
        ~init:(Core.Loose.uniform (Prng.create ~seed:(seed + 1)) ~n ~t_max)
        ~seed ~steps:(50 * n))

let suite =
  [
    Alcotest.test_case "scripted prng replays and records" `Quick test_scripted_replay;
    Alcotest.test_case "scripted prng rejects misuse" `Quick test_scripted_rejects;
    Alcotest.test_case "coins: deterministic" `Quick test_coins_deterministic;
    Alcotest.test_case "coins: full tree" `Quick test_coins_full_tree;
    Alcotest.test_case "coins: draw guard" `Quick test_coins_draw_guard;
    Alcotest.test_case "configs: count matches enumeration" `Quick test_configs_count_matches_iter;
    Alcotest.test_case "configs: keys injective" `Quick test_configs_keys_injective;
    Alcotest.test_case "configs: replace_pair" `Quick test_configs_replace_pair;
    Alcotest.test_case "catalogue passes at n=3" `Slow test_catalogue_passes;
    Alcotest.test_case "Table 1 counts cross-check" `Quick test_table1_cross_check;
    Alcotest.test_case "model check: silent_n_state" `Quick test_model_check_silent_n_state;
    Alcotest.test_case "model check: unrestricted baseline fails" `Quick
      test_model_check_catches_unrestricted_baseline;
    Alcotest.test_case "closure: missing state detected" `Quick test_closure_catches_missing_state;
    Alcotest.test_case "lint: false invariant detected" `Quick test_lint_catches_false_invariant;
    Alcotest.test_case "json report renders" `Quick test_json_renders;
    Alcotest.test_case "silence stage pinned" `Quick test_silence_stage_pinned;
    Alcotest.test_case "silence stage beside a failing chain" `Quick
      test_silence_stage_beside_failing_chain;
    Alcotest.test_case "silence stage matches Engine.Silence" `Slow
      test_silence_stage_matches_engine_silence;
    Alcotest.test_case "configs: key is the enumeration position" `Quick
      test_configs_key_is_position;
    Alcotest.test_case "silence: single agent" `Quick test_silence_single_agent_vacuous;
    Alcotest.test_case "silence: single state multiplicity" `Quick
      test_silence_single_state_multiplicity;
    Alcotest.test_case "silence: asymmetric ordered pair" `Quick test_silence_asymmetric_pair;
    Alcotest.test_case "silence: randomized rejected" `Quick test_silence_rejects_randomized;
    Alcotest.test_case "validate: rank range" `Quick test_validate_rank_range;
    Alcotest.test_case "validate: leader consistency" `Quick test_validate_leader_consistency;
    QCheck_alcotest.to_alcotest qcheck_silent_trace_invariants;
    QCheck_alcotest.to_alcotest qcheck_optimal_trace_invariants;
    QCheck_alcotest.to_alcotest qcheck_sublinear_trace_invariants;
    QCheck_alcotest.to_alcotest qcheck_loose_trace_invariants;
  ]
