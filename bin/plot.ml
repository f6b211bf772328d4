(* plot: render telemetry files into the paper's SVG figures.

     plot --chart slope events.jsonl                 log-log scaling fit
     plot --chart recovery-cdf soak.jsonl            burst recovery CDF
     plot --chart availability 0.25=a.jsonl 1=b.jsonl 4=c.jsonl
                                                     availability vs offered load
     plot --chart phases run.metrics.json            per-phase wall-time profile
     plot --chart slope events.jsonl -o fig.svg      write a file instead of stdout
     plot --embed                                    regenerate figures/*.svg from
                                                     the checked-in fixtures

   Output is deterministic in the input bytes — the same files render the
   same SVG on every run and every machine (golden tests hold the byte
   sequences). *)

type kind = Slope | Availability | Recovery_cdf | Phases

let fail fmt = Printf.ksprintf (fun msg -> Printf.eprintf "plot: %s\n" msg; exit 2) fmt

let read_events path =
  match open_in path with
  | exception Sys_error msg -> fail "%s" msg
  | ic -> (
      let result = Telemetry.Timeline.load ic in
      close_in ic;
      match result with
      | Ok events -> events
      | Error msg -> fail "%s: %s" path msg)

let read_json path =
  match open_in_bin path with
  | exception Sys_error msg -> fail "%s" msg
  | ic -> (
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      match Telemetry.Json.parse s with
      | Ok json -> json
      | Error msg -> fail "%s: %s" path msg)

(* LOAD=FILE inputs: each file is one soak's events at that offered load. *)
let availability_series inputs =
  Viz.Charts.availability_points
    (List.map
       (fun input ->
         match String.index_opt input '=' with
         | Some i -> (
             let l = String.sub input 0 i in
             let path = String.sub input (i + 1) (String.length input - i - 1) in
             match float_of_string_opt l with
             | Some load when load > 0.0 -> (load, Telemetry.Timeline.fold (read_events path))
             | Some _ | None -> fail "bad load in '%s' (want LOAD=FILE, LOAD > 0)" input)
         | None -> fail "--chart availability takes LOAD=FILE inputs (got '%s')" input)
       inputs)

let build kind title inputs =
  match kind with
  | Slope ->
      let events = List.concat_map read_events inputs in
      Viz.Charts.slope_fit ?title events
  | Recovery_cdf ->
      let events = List.concat_map read_events inputs in
      Viz.Charts.recovery_cdf ?title events
  | Availability -> Viz.Charts.availability ?title (availability_series inputs)
  | Phases -> (
      match inputs with
      | [ path ] -> Viz.Charts.phase_profile ?title (read_json path)
      | _ -> fail "--chart phases takes exactly one metrics JSON file")

let write_out out svg =
  match out with
  | None -> print_string svg
  | Some path ->
      let oc = open_out path in
      output_string oc svg;
      close_out oc

(* --embed: the standard figure set, rendered from the checked-in
   fixtures under test/golden/ into figures/ (both referenced from
   EXPERIMENTS.md; CI re-runs this and diffs, so the committed figures
   never go stale). *)
let embed root =
  let fixture f = Filename.concat (Filename.concat root "test/golden") f in
  let figures = Filename.concat root "figures" in
  (match Unix.mkdir figures 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) -> fail "%s: %s" figures (Unix.error_message e));
  let emit name chart =
    let path = Filename.concat figures name in
    write_out (Some path) (Viz.Plot.render chart);
    Printf.printf "wrote %s\n" path
  in
  emit "table1-slope.svg"
    (Viz.Charts.slope_fit
       ~title:"Convergence time vs population size (fixture sweep)"
       (read_events (fixture "viz_slope.jsonl")));
  emit "chaos-availability.svg"
    (Viz.Charts.availability
       (availability_series
          [
            "0.25=" ^ fixture "viz_avail_025.jsonl";
            "1=" ^ fixture "viz_avail_1.jsonl";
            "4=" ^ fixture "viz_avail_4.jsonl";
          ]));
  emit "recovery-cdf.svg" (Viz.Charts.recovery_cdf (read_events (fixture "viz_soak.jsonl")));
  emit "phase-profile.svg" (Viz.Charts.phase_profile (read_json (fixture "viz_phases.metrics.json")));
  0

let main embed_flag root chart title out inputs =
  if embed_flag then embed root
  else
    match chart with
    | None -> fail "--chart is required (slope, availability, recovery-cdf, phases)"
    | Some kind ->
        if inputs = [] then fail "no input files";
        write_out out (Viz.Plot.render (build kind title inputs));
        0

open Cmdliner

let chart_arg =
  let kinds =
    [
      ("slope", Slope);
      ("availability", Availability);
      ("recovery-cdf", Recovery_cdf);
      ("phases", Phases);
    ]
  in
  let doc =
    "Chart to render: $(b,slope) (log-log convergence scaling from events files), \
     $(b,availability) (availability vs offered load; inputs are LOAD=FILE pairs), \
     $(b,recovery-cdf) (burst recovery CDF from events files), $(b,phases) (per-phase \
     wall-time profile from one metrics JSON)."
  in
  Arg.(value & opt (some (enum kinds)) None & info [ "c"; "chart" ] ~docv:"KIND" ~doc)

let title_arg =
  let doc = "Override the chart title." in
  Arg.(value & opt (some string) None & info [ "title" ] ~docv:"TITLE" ~doc)

let out_arg =
  let doc = "Write the SVG to $(docv) instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let embed_arg =
  let doc =
    "Regenerate the standard figure set: render every figures/*.svg referenced from \
     EXPERIMENTS.md out of the checked-in fixtures under test/golden/."
  in
  Arg.(value & flag & info [ "embed" ] ~doc)

let root_arg =
  let doc = "Repository root for --embed (where test/golden/ and figures/ live)." in
  Arg.(value & opt string "." & info [ "root" ] ~docv:"DIR" ~doc)

let inputs_arg =
  let doc = "Input files (events JSONL; LOAD=FILE for availability; metrics JSON for phases)." in
  Arg.(value & pos_all string [] & info [] ~docv:"FILE" ~doc)

let cmd =
  let doc = "render telemetry events and metrics files into SVG figures" in
  let info = Cmd.info "plot" ~version:"1.0" ~doc in
  Cmd.v info Term.(const main $ embed_arg $ root_arg $ chart_arg $ title_arg $ out_arg $ inputs_arg)

(* Every usage error exits 2, cmdliner's own parse errors included. *)
let () = exit (match Cmd.eval' cmd with c when c = Cmd.Exit.cli_error -> 2 | c -> c)
