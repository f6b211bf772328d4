(* experiments_main: regenerate the data behind EXPERIMENTS.md.

     experiments_main                 run every experiment (quick mode)
     experiments_main --full          full-size sweeps (slow)
     experiments_main -e table1 ...   run selected experiments
     experiments_main --jobs 4        run trials on 4 domains (same output)
     experiments_main --out-dir DIR   also write per-experiment manifests
                                      and metrics (telemetry) into DIR *)

let ensure_dir path =
  match Unix.mkdir path 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "--out-dir %s: %s\n" path (Unix.error_message e);
      exit 2

let main list_only full names seed jobs out out_dir =
  if list_only then begin
    List.iter
      (fun e ->
        Printf.printf "%-14s %s\n" e.Experiments.Report.name e.Experiments.Report.description)
      Experiments.Report.all;
    exit 0
  end;
  let mode = if full then Experiments.Exp_common.Full else Experiments.Exp_common.Quick in
  let jobs =
    match Engine.Pool.resolve_jobs jobs with
    | Ok j -> j
    | Error msg ->
        prerr_endline msg;
        exit 2
  in
  let selected =
    match names with
    | [] -> Experiments.Report.all
    | names ->
        List.map
          (fun n ->
            match Experiments.Report.find n with
            | Some e -> e
            | None ->
                Printf.eprintf "unknown experiment '%s' (available: %s)\n" n
                  (String.concat ", "
                     (List.map (fun e -> e.Experiments.Report.name) Experiments.Report.all));
                exit 2)
          names
  in
  Option.iter ensure_dir out_dir;
  let body =
    String.concat "\n"
      (List.map
         (fun e ->
           let name = e.Experiments.Report.name in
           (* Install ambient registries (metrics + figures) per
              experiment so the trial runner, engines, and chart emitters
              record into them; uninstall before writing so a crash in
              one experiment never leaks into the next. *)
           let reg =
             Option.map
               (fun _ ->
                 let reg = Telemetry.Metrics.create () in
                 Telemetry.Metrics.install reg;
                 reg)
               out_dir
           in
           let figs =
             Option.map
               (fun _ ->
                 let figs = Viz.Figures.create () in
                 Viz.Figures.install figs;
                 figs)
               out_dir
           in
           let t0 = Unix.gettimeofday () in
           let b =
             Fun.protect
               ~finally:(fun () ->
                 if reg <> None then Telemetry.Metrics.uninstall ();
                 if figs <> None then Viz.Figures.uninstall ())
               (fun () -> e.Experiments.Report.run ~mode ~seed ~jobs)
           in
           let wall_clock_s = Unix.gettimeofday () -. t0 in
           Option.iter
             (fun dir ->
               let reg = Option.get reg in
               Telemetry.Metrics.write ~path:(Filename.concat dir (name ^ ".metrics.json")) reg;
               (* Every figure the experiment emitted, plus its per-phase
                  wall-time profile when any spans were recorded. *)
               let write_svg fname chart =
                 let oc = open_out (Filename.concat dir (fname ^ ".svg")) in
                 output_string oc (Viz.Plot.render chart);
                 close_out oc
               in
               List.iter
                 (fun (fname, chart) -> write_svg fname chart)
                 (Viz.Figures.charts (Option.get figs));
               let metrics_json = Telemetry.Metrics.to_json reg in
               let profile = Viz.Charts.phase_profile metrics_json in
               if Viz.Charts.has_spans metrics_json then
                 write_svg (name ^ "-phases") profile;
               let manifest =
                 Telemetry.Manifest.make ~run:name ~seed ~jobs
                   ~params:
                     [
                       ( "mode",
                         Telemetry.Json.String (if full then "full" else "quick") );
                     ]
                   ~wall_clock_s ()
               in
               Telemetry.Manifest.write
                 ~path:(Filename.concat dir (name ^ ".manifest.json"))
                 manifest)
             out_dir;
           (* on stderr, so that a report that reads no clock is
              byte-identical from run to run *)
           Printf.eprintf "(experiment '%s' took %.1f s wall clock)\n%!" name wall_clock_s;
           b ^ "\n")
         selected)
  in
  (match out with
  | None -> print_string body
  | Some path ->
      let oc = open_out path in
      output_string oc body;
      close_out oc;
      Printf.printf "wrote %s\n" path);
  0

open Cmdliner

let list_arg =
  let doc = "List the available experiments and exit." in
  Arg.(value & flag & info [ "list" ] ~doc)

let full_arg =
  let doc = "Full-size sweeps (slow); default is quick mode." in
  Arg.(value & flag & info [ "full" ] ~doc)

let names_arg =
  let doc = "Experiment name (repeatable); default: all." in
  Arg.(value & opt_all string [] & info [ "e"; "experiment" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "PRNG seed." in
  Arg.(value & opt int 2024 & info [ "seed" ] ~docv:"SEED" ~doc)

let jobs_arg =
  let doc =
    "Number of domains running trials in parallel (default: $(b,REPRO_JOBS) or the \
     recommended domain count). Results are identical for every value."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let out_arg =
  let doc = "Write the report to a file instead of stdout." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let out_dir_arg =
  let doc =
    "Write per-experiment telemetry into $(docv) (created if missing): \
     $(i,NAME).manifest.json (what ran: seed, jobs, wall clock, git revision) and \
     $(i,NAME).metrics.json (engine counters, per-trial wall-time histogram)."
  in
  Arg.(value & opt (some string) None & info [ "out-dir" ] ~docv:"DIR" ~doc)

let cmd =
  let doc = "regenerate the paper-reproduction experiment reports" in
  let info = Cmd.info "experiments_main" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(
      const main $ list_arg $ full_arg $ names_arg $ seed_arg $ jobs_arg $ out_arg $ out_dir_arg)

(* Every usage error exits 2, cmdliner's own parse errors included. *)
let () = exit (match Cmd.eval' cmd with c when c = Cmd.Exit.cli_error -> 2 | c -> c)
