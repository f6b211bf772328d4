(* Tests for the experiment harness. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_registry_names_unique () =
  let names = List.map (fun e -> e.Experiments.Report.name) Experiments.Report.all in
  check_int "no duplicates" (List.length names) (List.length (List.sort_uniq compare names))

let test_registry_find () =
  check_bool "table1 present" true (Experiments.Report.find "table1" <> None);
  check_bool "unknown absent" true (Experiments.Report.find "nope" = None)

let test_registry_covers_design () =
  (* every experiment id of DESIGN.md's index has a module *)
  List.iter
    (fun required ->
      check_bool (required ^ " registered") true (Experiments.Report.find required <> None))
    [
      "table1"; "tradeoff"; "figures"; "silent_lb"; "quadratic_lb"; "nonuniform"; "reset";
      "scale"; "exact"; "ablation"; "loose"; "topology"; "scenarios"; "epidemic"; "chaos";
      "engines";
    ]

let test_trials_of_mode () =
  check_int "full keeps base" 30 (Experiments.Exp_common.trials_of_mode Experiments.Exp_common.Full ~base:30);
  check_int "quick divides" 10 (Experiments.Exp_common.trials_of_mode Experiments.Exp_common.Quick ~base:30);
  check_int "quick floor" 5 (Experiments.Exp_common.trials_of_mode Experiments.Exp_common.Quick ~base:6)

let test_measure_accounting () =
  let n = 8 in
  let protocol = Core.Silent_n_state.protocol ~n in
  let m =
    Experiments.Exp_common.measure ~label:"t" ~protocol
      ~init:(fun rng -> Core.Scenarios.silent_uniform rng ~n)
      ~expected_time:(float_of_int (n * n)) ~trials:6 ~seed:7 ()
  in
  check_int "converged + failed = trials" 6 (Array.length m.Experiments.Exp_common.times + m.Experiments.Exp_common.failures);
  check_int "silence checked on converged runs" (Array.length m.Experiments.Exp_common.times)
    m.Experiments.Exp_common.silent_checked;
  check_int "all final configs silent" m.Experiments.Exp_common.silent_checked
    m.Experiments.Exp_common.silent_ok

let test_measure_deterministic_in_seed () =
  let n = 8 in
  let protocol = Core.Silent_n_state.protocol ~n in
  let run () =
    Experiments.Exp_common.measure ~label:"t" ~protocol
      ~init:(fun rng -> Core.Scenarios.silent_uniform rng ~n)
      ~expected_time:(float_of_int (n * n)) ~trials:4 ~seed:19 ()
  in
  Alcotest.(check (array (float 1e-12))) "same seed, same times"
    (run ()).Experiments.Exp_common.times (run ()).Experiments.Exp_common.times

(* The experiments and ssr_sim/fleet share one seeded batch and one
   stopping rule: a Fleet.Run batch over the catalogue's uniform plan and
   Exp_common.measure over the same scenario and expected time give
   bit-identical convergence times. *)
let test_measure_matches_run_batch () =
  let n = 8 and trials = 6 and seed = 7 in
  let check (type s) ~name ~(protocol : s Engine.Protocol.t) ~(init : Prng.t -> s array)
      ~expected_time engine =
    let plan =
      match
        Fleet.Run.plan ~protocol:name ~n ~h:0 ~scenario:"uniform" ~engine ~compiled:false
          (Fleet.Run.Stability { deadline = None })
      with
      | Ok plan -> plan
      | Error msg -> Alcotest.fail msg
    in
    let batch = Fleet.Run.batch ~events:false ~seed ~trials plan in
    let from_batch =
      Array.to_list batch.Fleet.Run.results
      |> List.filter_map (function
           | Ok (Fleet.Run.Stable o) when o.Engine.Runner.converged ->
               Some o.Engine.Runner.convergence_time
           | Ok _ | Error _ -> None)
    in
    let m =
      Experiments.Exp_common.measure ~label:name ~protocol ~init ~expected_time ~engine ~trials
        ~seed ()
    in
    let label = Printf.sprintf "%s on the %s engine" name (Engine.Exec.kind_to_string engine) in
    check_int (label ^ ": every trial converged") trials (List.length from_batch);
    Alcotest.(check (list (float 0.0)))
      label from_batch
      (Array.to_list m.Experiments.Exp_common.times)
  in
  let params = Core.Params.optimal_silent n in
  List.iter
    (fun engine ->
      check ~name:"silent" ~protocol:(Core.Silent_n_state.protocol ~n)
        ~init:(fun rng -> Core.Scenarios.silent_uniform rng ~n)
        ~expected_time:(float_of_int (n * n)) engine;
      check ~name:"optimal" ~protocol:(Core.Optimal_silent.protocol ~params ~n ())
        ~init:(fun rng -> Core.Scenarios.optimal_uniform rng ~params ~n)
        ~expected_time:(float_of_int (40 * n)) engine)
    [ Engine.Exec.Agent; Engine.Exec.Count ]

let test_time_row_shape () =
  let n = 8 in
  let protocol = Core.Silent_n_state.protocol ~n in
  let m =
    Experiments.Exp_common.measure ~label:"t" ~protocol
      ~init:(fun _ -> Core.Scenarios.silent_correct ~n)
      ~expected_time:1.0 ~trials:3 ~seed:3 ()
  in
  check_int "row matches header" (List.length Experiments.Exp_common.time_header)
    (List.length (Experiments.Exp_common.time_row m))

let test_scaling_fit () =
  let fake n mean =
    ( n,
      {
        Experiments.Exp_common.label = "x";
        n;
        times = [| mean; mean |];
        events = [| 0; 0 |];
        failures = 0;
        violations = 0;
        silent_checked = 0;
        silent_ok = 0;
      } )
  in
  let points = [ fake 8 64.0; fake 16 256.0; fake 32 1024.0 ] in
  let fit = Experiments.Exp_common.scaling_fit points in
  Alcotest.(check (float 1e-6)) "recovers quadratic exponent" 2.0 fit.Stats.Regression.slope

let test_figure1_tree_shape () =
  let s = Experiments.Exp_figures.figure1_tree ~n:12 ~settled:8 in
  let lines = String.split_on_char '\n' s |> List.filter (fun l -> l <> "") in
  check_int "12 rank lines" 12 (List.length lines);
  check_int "8 settled" 8
    (List.length (List.filter (fun l -> String.length l > 0 &&
       String.ends_with ~suffix:"[settled]" l) lines))

let test_figure2_script_matches_paper () =
  let s = Experiments.Exp_figures.figure2_script () in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec scan i = i + nl <= sl && (String.sub s i nl = needle || scan (i + 1)) in
    scan 0
  in
  check_bool "left execution matches first edge" true (contains "True after checking edge 1");
  check_bool "right execution matches second edge" true (contains "True after checking edge 2");
  check_bool "no false collision in the figure" true (not (contains "collision!"))

let suite =
  [
    Alcotest.test_case "registry unique" `Quick test_registry_names_unique;
    Alcotest.test_case "registry find" `Quick test_registry_find;
    Alcotest.test_case "registry covers design" `Quick test_registry_covers_design;
    Alcotest.test_case "trials of mode" `Quick test_trials_of_mode;
    Alcotest.test_case "measure accounting" `Slow test_measure_accounting;
    Alcotest.test_case "measure deterministic" `Slow test_measure_deterministic_in_seed;
    Alcotest.test_case "measure matches Run.batch" `Quick test_measure_matches_run_batch;
    Alcotest.test_case "time row shape" `Quick test_time_row_shape;
    Alcotest.test_case "scaling fit" `Quick test_scaling_fit;
    Alcotest.test_case "figure1 tree shape" `Quick test_figure1_tree_shape;
    Alcotest.test_case "figure2 script" `Quick test_figure2_script_matches_paper;
  ]
