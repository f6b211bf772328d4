(* timeline: fold a JSONL events file (ssr_sim --events, experiment runs)
   into a per-run recovery summary, or serve it live. Examples:

     ssr_sim -p silent -n 64 -s worst-case --events run.jsonl
     timeline run.jsonl
     timeline --sla 48 run.jsonl
     timeline - < run.jsonl
     timeline --serve --port 8080 run.jsonl     live dashboard while
                                                ssr_sim --chaos appends *)

let serve_main port path =
  if path = "-" then begin
    Printf.eprintf "timeline: --serve needs a file path to tail, not stdin\n";
    exit 2
  end;
  let server = Viz.Serve.create ~port ~path () in
  Printf.printf "timeline: serving %s on http://127.0.0.1:%d/ (ctrl-c to stop)\n%!" path
    (Viz.Serve.port server);
  Viz.Serve.run server;
  0

let summarize sla_budget path =
  (match sla_budget with
  | Some b when not (b > 0.0) ->
      Printf.eprintf "timeline: --sla budget must be > 0 (got %g)\n" b;
      exit 2
  | _ -> ());
  let ic, close =
    if path = "-" then (stdin, fun () -> ())
    else
      match open_in path with
      | ic -> (ic, fun () -> close_in ic)
      | exception Sys_error msg ->
          Printf.eprintf "timeline: %s\n" msg;
          exit 2
  in
  let result = Telemetry.Timeline.load ic in
  close ();
  match result with
  | Error msg ->
      Printf.eprintf "timeline: %s\n" msg;
      1
  | Ok [] ->
      Printf.eprintf "timeline: no events in %s\n" (if path = "-" then "stdin" else path);
      1
  | Ok events ->
      let summaries = Telemetry.Timeline.fold events in
      List.iteri
        (fun i summary ->
          if i > 0 then print_newline ();
          Format.printf "%a@." (Telemetry.Timeline.pp_summary ?sla_budget) summary)
        summaries;
      Printf.printf "%d run%s, %d events\n" (List.length summaries)
        (if List.length summaries = 1 then "" else "s")
        (List.length events);
      (match sla_budget with
      | None -> ()
      | Some budget ->
          let { Telemetry.Timeline.Tally.misses; censored; _ } =
            Telemetry.Timeline.Tally.of_summaries ~budget summaries
          in
          if misses = 0 && censored = 0 then
            Printf.printf "SLA (budget %.2f): MET across all runs\n" budget
          else
            Printf.printf "SLA (budget %.2f): MISSED (%d over budget, %d never recovered)\n"
              budget misses censored);
      0

let main serve sla_budget port path = if serve then serve_main port path else summarize sla_budget path

open Cmdliner

let path_arg =
  let doc = "JSONL events file produced by ssr_sim --events (schema v1); - reads stdin." in
  Arg.(value & pos 0 string "-" & info [] ~docv:"FILE" ~doc)

let sla_arg =
  let doc =
    "Recovery budget in parallel time units. Each burst that broke correctness is checked \
     against it: recoveries over budget are SLA misses, bursts never recovered are censored \
     misses, and a per-run and aggregate verdict is printed."
  in
  Arg.(value & opt (some float) None & info [ "sla" ] ~docv:"BUDGET" ~doc)

let serve_arg =
  let doc =
    "Serve a live dashboard over $(i,FILE) instead of printing a summary: a single-threaded \
     HTTP server tails the events file (tolerating a writer mid-line) and streams incremental \
     recovery/availability state to the browser over Server-Sent Events, so a running \
     $(b,ssr_sim --chaos) soak is watchable as it writes."
  in
  Arg.(value & flag & info [ "serve" ] ~doc)

let port_arg =
  let doc = "Port for --serve (0 picks a free port and prints it)." in
  Arg.(value & opt int 8080 & info [ "port" ] ~docv:"PORT" ~doc)

let cmd =
  let doc = "summarize a telemetry events file: convergence, violations, fault recovery" in
  let info = Cmd.info "timeline" ~version:"1.0" ~doc in
  Cmd.v info Term.(const main $ serve_arg $ sla_arg $ port_arg $ path_arg)

(* Every usage error exits 2, cmdliner's own parse errors included. *)
let () = exit (match Cmd.eval' cmd with c when c = Cmd.Exit.cli_error -> 2 | c -> c)
