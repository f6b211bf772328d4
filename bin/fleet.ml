(* fleet: supervised soak-fleet orchestrator over a job file and/or a
   local HTTP control socket. Examples:

     fleet jobs.jsonl --out-dir fleet-out --workers 4
     fleet jobs.jsonl --chaos kill-worker:0.3 --chaos-seed 7
     fleet --resume jobs.jsonl            re-queue incomplete jobs after a crash
     fleet --serve --port 8099            idle fleet accepting POST /submit
     fleet jobs.jsonl --serve --port 0    run the file and watch it live

   One line of the job file = one JSON job spec (see Fleet.Job); the
   fleet journals every decision to <out-dir>/fleet.journal.jsonl and
   writes per-job events/manifest files that are bit-identical for a
   fixed spec regardless of --workers, retries, or kill/--resume. *)

let stop_signal = ref None

let install_signal_handlers () =
  let note reason (_ : int) = if !stop_signal = None then stop_signal := Some reason in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle (note "sigterm"))
   with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigint (Sys.Signal_handle (note "sigint"))
  with Invalid_argument _ -> ()

(* Flow-controlled job-file feeder: reads only while the admission queue
   has room, so a job file larger than the queue cap trickles in instead
   of shedding its own tail. *)
type feeder = { ic : in_channel; mutable line_no : int; mutable exhausted : bool }

let feed feeder orch =
  match feeder with
  | None -> ()
  | Some f ->
      while (not f.exhausted) && Fleet.Orchestrator.has_capacity orch do
        match input_line f.ic with
        | exception End_of_file ->
            f.exhausted <- true;
            close_in_noerr f.ic
        | line ->
            f.line_no <- f.line_no + 1;
            let line = String.trim line in
            if line <> "" && not (String.length line > 0 && line.[0] = '#') then begin
              match Fleet.Job.of_line line with
              | Error msg ->
                  Printf.eprintf "fleet: %s:%d: %s\n%!"
                    (match f.ic == stdin with true -> "-" | false -> "jobs") f.line_no msg;
                  Fleet.Orchestrator.reject orch
                    ~id:(Printf.sprintf "line-%d" f.line_no)
                    ~reason:msg
              | Ok job -> (
                  (* [has_capacity] gated the read, so a shed here can
                     only be a duplicate id (e.g. re-feeding the job file
                     of a resumed fleet) — report and keep feeding. *)
                  match Fleet.Orchestrator.submit orch job with
                  | `Accepted -> ()
                  | `Shed reason ->
                      Printf.eprintf "fleet: job %s shed: %s\n%!" job.Fleet.Job.id reason)
            end
      done

let submit_body orch body =
  let accepted = ref 0 in
  let shed = ref [] in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "" then
           match Fleet.Job.of_line line with
           | Error msg ->
               Fleet.Orchestrator.reject orch ~id:"socket" ~reason:msg;
               shed := ("socket", msg) :: !shed
           | Ok job -> (
               match Fleet.Orchestrator.submit orch job with
               | `Accepted -> incr accepted
               | `Shed reason -> shed := (job.Fleet.Job.id, reason) :: !shed));
  let reply =
    Telemetry.Json.Obj
      [
        ("accepted", Telemetry.Json.Int !accepted);
        ( "shed",
          Telemetry.Json.List
            (List.rev_map
               (fun (id, reason) ->
                 Telemetry.Json.Obj
                   [
                     ("id", Telemetry.Json.String id); ("reason", Telemetry.Json.String reason);
                   ])
               !shed) );
      ]
  in
  (!shed = [], Telemetry.Json.to_string reply)

let main job_file out_dir journal workers queue_cap backoff chaos chaos_seed resume serve port
    metrics =
  if workers < 1 then begin
    Printf.eprintf "fleet: --workers must be >= 1 (got %d)\n" workers;
    exit 2
  end;
  if job_file = None && not serve then begin
    Printf.eprintf "fleet: nothing to do (give a job file, or --serve)\n";
    exit 2
  end;
  let chaos =
    match chaos with
    | None -> Chaos.Fleet_faults.none
    | Some spec -> (
        match Chaos.Fleet_faults.parse spec with
        | Ok t -> t
        | Error msg ->
            Printf.eprintf "fleet: --chaos: %s\n" msg;
            exit 2)
  in
  let cfg =
    {
      (Fleet.Orchestrator.default_config ~out_dir) with
      Fleet.Orchestrator.workers;
      queue_cap;
      backoff_base = backoff;
      chaos;
      chaos_seed;
      journal_path =
        (match journal with
        | Some path -> path
        | None -> Filename.concat out_dir "fleet.journal.jsonl");
    }
  in
  let reg = Telemetry.Metrics.create () in
  if metrics <> None then Telemetry.Metrics.install reg;
  let orch =
    try Fleet.Orchestrator.create ~resume cfg
    with Failure msg | Invalid_argument msg ->
      Printf.eprintf "fleet: %s\n" msg;
      exit 2
  in
  let feeder =
    Option.map
      (fun path ->
        match if path = "-" then Ok stdin else try Ok (open_in path) with Sys_error m -> Error m with
        | Ok ic -> { ic; line_no = 0; exhausted = false }
        | Error msg ->
            Printf.eprintf "fleet: %s\n" msg;
            exit 2)
      job_file
  in
  let server =
    if not serve then None
    else begin
      let source =
        {
          Viz.Serve.page = Viz.Fleet_board.page ~title:(Filename.basename out_dir);
          snapshot =
            (fun () -> Telemetry.Json.to_string (Fleet.Orchestrator.snapshot_json orch));
          refresh = (fun () -> false);
          submit = Some (submit_body orch);
          shutdown = (fun () -> ());
        }
      in
      let s = Viz.Serve.of_source ~port source in
      Printf.printf "fleet: serving http://127.0.0.1:%d/ (POST /submit takes JSONL specs)\n%!"
        (Viz.Serve.port s);
      Some s
    end
  in
  install_signal_handlers ();
  let last_stats = ref None in
  let on_tick orch =
    feed feeder orch;
    match server with
    | None -> ()
    | Some s ->
        Viz.Serve.poll ~timeout:0.0 s;
        let stats = Fleet.Orchestrator.stats orch in
        if !last_stats <> Some stats then begin
          last_stats := Some stats;
          Viz.Serve.notify s
        end
  in
  let more_work () =
    (match feeder with Some f -> not f.exhausted | None -> false) || server <> None
  in
  let reason =
    Fleet.Orchestrator.run ~on_tick ~should_drain:(fun () -> !stop_signal) ~more_work orch
  in
  Option.iter Viz.Serve.close server;
  let s = Fleet.Orchestrator.stats orch in
  Printf.printf "fleet: drained (%s) — %d submitted, %d completed, %d failed, %d shed, %d retries\n"
    reason s.Fleet.Orchestrator.submitted s.Fleet.Orchestrator.completed
    s.Fleet.Orchestrator.failed s.Fleet.Orchestrator.shed s.Fleet.Orchestrator.retries;
  Printf.printf "fleet: journal %s\n" cfg.Fleet.Orchestrator.journal_path;
  (match metrics with
  | None -> ()
  | Some path ->
      Telemetry.Metrics.uninstall ();
      Telemetry.Metrics.write ~path reg);
  if s.Fleet.Orchestrator.failed > 0 then 1 else 0

open Cmdliner

let job_file_arg =
  let doc = "JSONL job file: one JSON job spec per line ('#' comments and blank lines skipped); - reads stdin. Fed under flow control: lines are read only while the admission queue has room." in
  Arg.(value & pos 0 (some string) None & info [] ~docv:"JOBS" ~doc)

let out_dir_arg =
  let doc = "Output directory for per-job events/manifest files and the journal (created if missing)." in
  Arg.(value & opt string "fleet-out" & info [ "out-dir" ] ~docv:"DIR" ~doc)

let journal_arg =
  let doc = "Journal path (default: $(b,OUT-DIR)/fleet.journal.jsonl)." in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let workers_arg =
  let doc = "Concurrent jobs (worker domains)." in
  Arg.(value & opt int 2 & info [ "w"; "workers" ] ~docv:"N" ~doc)

let queue_cap_arg =
  let doc = "Admission queue bound; submissions beyond it are shed with an explicit verdict." in
  Arg.(value & opt int 64 & info [ "queue-cap" ] ~docv:"N" ~doc)

let backoff_arg =
  let doc = "Retry backoff base, in scheduler ticks (delay = base*2^(attempt-1) + jitter)." in
  Arg.(value & opt int 4 & info [ "backoff" ] ~docv:"TICKS" ~doc)

let chaos_arg =
  let doc =
    "Fault injection aimed at the fleet itself (not the protocols): comma-separated \
     $(b,kill-worker:P), $(b,stall-job:P), $(b,torn-journal). Decisions are drawn \
     deterministically from --chaos-seed, the job id and the attempt."
  in
  Arg.(value & opt (some string) None & info [ "chaos" ] ~docv:"SPEC" ~doc)

let chaos_seed_arg =
  let doc = "Seed for fleet chaos decisions." in
  Arg.(value & opt int 0 & info [ "chaos-seed" ] ~docv:"SEED" ~doc)

let resume_arg =
  let doc =
    "Replay the journal before starting: completed/failed jobs stay terminal (their outputs \
     are never rewritten), incomplete jobs are re-queued with their attempt counts, and new \
     journal entries append."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let serve_arg =
  let doc =
    "Serve the live status board and a submission endpoint: GET / (dashboard), GET /data.json, \
     GET /events (SSE), POST /submit (JSONL job specs; 202/409 with per-job verdicts). Keeps \
     an idle fleet alive until a shutdown signal."
  in
  Arg.(value & flag & info [ "serve" ] ~doc)

let port_arg =
  let doc = "Port for --serve (0 picks a free port and prints it)." in
  Arg.(value & opt int 8098 & info [ "port" ] ~docv:"PORT" ~doc)

let metrics_arg =
  let doc = "Write a JSON metrics summary (fleet counters, engine counters) to $(docv) at exit." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let cmd =
  let doc = "supervised fleet orchestrator for simulation/soak jobs" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Multiplexes many trial/soak jobs over a domain pool with bounded-queue backpressure, \
         per-job interaction-clock deadlines, supervised retries with exponential backoff, \
         crash-safe journaling with $(b,--resume), and graceful drain on SIGTERM/SIGINT \
         (in-flight jobs finish; queued jobs stay incomplete in the journal for the next \
         $(b,--resume)). For a fixed job spec the per-job events file is bit-identical \
         whatever the worker count, retry history, or kill/resume cycle.";
    ]
  in
  let info = Cmd.info "fleet" ~version:"1.0" ~doc ~man in
  Cmd.v info
    Term.(
      const main $ job_file_arg $ out_dir_arg $ journal_arg $ workers_arg $ queue_cap_arg
      $ backoff_arg $ chaos_arg $ chaos_seed_arg $ resume_arg $ serve_arg $ port_arg
      $ metrics_arg)

(* Every usage error exits 2, cmdliner's own parse errors included. *)
let () = exit (match Cmd.eval' cmd with c when c = Cmd.Exit.cli_error -> 2 | c -> c)
