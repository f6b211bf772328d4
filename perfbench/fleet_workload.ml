(* fleet-soak: an in-process Fleet.Orchestrator with one worker, fed from
   one job file through [has_capacity] the way the fleet CLI feeds it: a
   closed loop with one client and at most [queue_cap] jobs outstanding.
   One operation is one job, timed from submit to the first tick that sees
   it completed. *)

module J = Telemetry.Json
module O = Fleet.Orchestrator

(* More jobs than a run can finish: the feeder stops at the deadline. *)
let job_file_lines = 4000

(* The job mix: chaos soaks on both engines and small run-to-stability
   jobs, all at n = 64 with 4 trials each, so that the work in the worker
   (about 30 ms a job) outweighs the orchestrator, journal and telemetry
   writes outside it while those keep a visible share (about 4 ms a job).
   With one trial a job, or at n = 32, that fixed share is a third or more
   of a job, and its wake-ups, tick sleeps and process spawns make the
   fleet's throughput swing with the host's load far more than the
   engines'. Soak horizons and SLAs (in parallel time) grow with n, as
   stabilization time does, so that bursts still recover within them. *)
let job_n = 64
let job_trials = 4

let job_line rng j =
  let seed = 1 + Prng.int rng 1_000_000 in
  let base = Printf.sprintf {|"id":"j%05d","n":%d,"seed":%d,"trials":%d|} j job_n seed job_trials in
  let pick a = a.(Prng.int rng (Array.length a)) in
  match j mod 4 with
  | 0 ->
      Printf.sprintf
        {|{%s,"protocol":"optimal","chaos":"poisson:%s,corrupt:0.1","horizon":%d,"sla":%d}|} base
        (pick [| "0.005"; "0.01" |]) (pick [| 600; 800 |]) (pick [| 240; 320; 400 |])
  | 1 ->
      Printf.sprintf
        {|{%s,"protocol":"silent","engine":"count","scenario":"correct","chaos":"poisson:%s,corrupt:0.1","horizon":%d,"sla":%d}|}
        base (pick [| "0.001"; "0.002" |]) (pick [| 4000; 6000 |]) (pick [| 800; 1200; 1600 |])
  | 2 -> Printf.sprintf {|{%s,"protocol":"optimal"}|} base
  | _ -> Printf.sprintf {|{%s,"protocol":"silent","engine":"count"}|} base

let write_job_file ~path ~seed =
  let rng = Prng.create ~seed in
  let oc = open_out path in
  for j = 0 to job_file_lines - 1 do
    output_string oc (job_line rng j ^ "\n")
  done;
  close_out oc

let read_lines path =
  let ic = open_in path in
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  let lines = go [] in
  close_in ic;
  lines

let file_size path = (Unix.stat path).Unix.st_size

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* One set-up: orchestrator creation plus job-file admission (parse and
   validate every spec, submit while the queue has room). *)
let setup ~dir ~job_file =
  rm_rf dir;
  Trace.span "fleet.setup" (fun () ->
      let cfg = { (O.default_config ~out_dir:dir) with O.workers = 1 } in
      let o = Trace.span "fleet.create" (fun () -> O.create cfg) in
      let jobs =
        Trace.span "jobfile.parse" (fun () ->
            List.map
              (fun line ->
                match Fleet.Job.of_line line with
                | Ok job -> job
                | Error msg -> failwith ("perfbench job file: " ^ msg))
              (read_lines job_file))
      in
      (o, cfg, Queue.of_seq (List.to_seq jobs)))

type job_record = { job : Fleet.Job.t; submitted_at : float; mutable done_at : float }

(* Submits while the queue has room; every accepted job is added to both
   [all] and [outstanding]. *)
let submit_while_room o queue ~all ~outstanding =
  while O.has_capacity o && not (Queue.is_empty queue) do
    let job = Queue.pop queue in
    match Trace.span "fleet.submit" (fun () -> O.submit o job) with
    | `Accepted ->
        let r = { job; submitted_at = Trace.now (); done_at = nan } in
        all := r :: !all;
        outstanding := r :: !outstanding
    | `Shed reason -> failwith ("perfbench: job shed at admission: " ^ reason)
  done

(* Throughput samples: simulated time of the jobs completed in each full
   window of [window_s] from the start of the fleet loop, per second. *)
let window_s = 2.0

let window_of ~started_at t = int_of_float ((t -. started_at) /. window_s)

(* Under --trace 1 the windows pair up as (0, 1), (2, 3), ..., and the
   traced one comes second, then first, then second again (untraced,
   traced, traced, untraced, ...), so a steady drift of the machine's
   speed favours neither. *)
let traced_window w = w mod 4 = 1 || w mod 4 = 2

(* The timed phase: the orchestrator's own loop, with the feeder and the
   completion tracker in [on_tick]. With [trace], recording is on in the
   [traced_window]s only. Returns the loop's wall time. *)
let run_fleet o queue ~all ~outstanding ~seconds ~trace =
  let t0 = Trace.now () in
  let feeding () = Trace.now () -. t0 < seconds && not (Queue.is_empty queue) in
  let track o =
    let now = Trace.now () in
    outstanding :=
      List.filter
        (fun r ->
          let completed = O.is_completed o r.job.Fleet.Job.id in
          if completed then r.done_at <- now;
          not completed)
        !outstanding
  in
  let on_tick o =
    Trace.set_enabled (trace && traced_window (window_of ~started_at:t0 (Trace.now ())));
    Trace.span "fleet.on_tick" (fun () ->
        track o;
        if feeding () then submit_while_room o queue ~all ~outstanding)
  in
  ignore (Trace.span "fleet.run" (fun () -> O.run ~on_tick ~more_work:feeding o) : string);
  Trace.set_enabled false;
  let wall = Trace.now () -. t0 in
  track o;
  wall

(* What the output check learns about one completed job. *)
type job_facts = {
  job : Fleet.Job.t;
  done_at : float;
  job_s : float;  (** submit to done *)
  service_s : float;  (** the manifest's wall_clock_s *)
  interactions : int;
  lines : int;
  bytes : int;
  bursts : int;
  recoveries : int;
  converged : int;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* One check per job, combining: done exactly once in the journal; its
   events file folds through Timeline to one run per trial and to the
   converged count (the SLA verdicts, for a chaos job) that the job
   reported; its manifest is readable. *)
let check_job tally ~dir ~dones (r : job_record) =
  let job = r.job in
  let id = job.Fleet.Job.id in
  let result =
    match List.filter (fun (id', _, _) -> id' = id) dones with
    | [] | _ :: _ :: _ -> Error "not done exactly once in the journal"
    | [ (_, converged, trials) ] -> (
        let events_path = Filename.concat dir (id ^ ".events.jsonl") in
        let loaded = In_channel.with_open_bin events_path Telemetry.Timeline.load in
        let manifest = J.parse (read_file (Filename.concat dir (id ^ ".manifest.json"))) in
        match (loaded, manifest) with
        | Error msg, _ | _, Error msg -> Error msg
        | Ok events, Ok manifest ->
            let summaries = Telemetry.Timeline.fold events in
            let n = float_of_int job.Fleet.Job.n in
            let verdict s =
              match job.Fleet.Job.sla with
              | Some sla ->
                  (* The worker's budget, rounded up to whole interactions. *)
                  let budget = Float.ceil (sla *. n) /. n in
                  (Telemetry.Timeline.check_sla ~budget s).Telemetry.Timeline.sla_met
              | None -> s.Telemetry.Timeline.last_correct_at <> None
            in
            let folded = List.length (List.filter verdict summaries) in
            let sum f = List.fold_left (fun acc s -> acc + f s) 0 summaries in
            let bursts_where p = sum (fun s -> List.length (List.filter p s.Telemetry.Timeline.bursts)) in
            if List.length summaries <> trials || folded <> converged || Float.is_nan r.done_at then
              Error
                (Printf.sprintf "timeline folds %d of %d runs to the verdict, journal says %d of %d"
                   folded (List.length summaries) converged trials)
            else
              Ok
                {
                  job;
                  done_at = r.done_at;
                  job_s = r.done_at -. r.submitted_at;
                  service_s =
                    Option.value ~default:nan
                      (Option.bind (J.member "wall_clock_s" manifest) J.to_float);
                  interactions = sum (fun s -> s.Telemetry.Timeline.end_interactions);
                  lines = List.length events;
                  bytes = file_size events_path;
                  bursts = bursts_where (fun _ -> true);
                  recoveries =
                    bursts_where (fun b ->
                        b.Telemetry.Timeline.broke && b.Telemetry.Timeline.recovered_at <> None);
                  converged;
                })
  in
  Run.check tally (Result.is_ok result)
    (lazy (Printf.sprintf "job %s: %s" id (match result with Error m -> m | Ok _ -> "")));
  Result.to_option result

type phase = {
  setup_s : float list;  (** every set-up's time in reference seconds, in order *)
  setup_wall_s : float list;  (** the same in wall seconds *)
  heap_peak_mb : float;  (** when the fleet has run, before the later set-ups *)
  out_dir : string;  (** where the measured fleet wrote its outputs *)
  facts : job_facts list;  (** jobs that passed their check, submission order *)
  started_at : float;
  wall_s : float;
  stats : O.stats;
  journal_lines : int;
  journal_bytes : int;
  registry : Telemetry.Metrics.t;
}

let ptime_of f = float_of_int f.interactions /. float_of_int job_n

let rates ~seconds p =
  let windows = max 1 (int_of_float (seconds /. window_s)) in
  let sums = Array.make windows 0.0 in
  List.iter
    (fun (f : job_facts) ->
      let w = window_of ~started_at:p.started_at f.done_at in
      if w >= 0 && w < windows then sums.(w) <- sums.(w) +. ptime_of f)
    p.facts;
  Array.to_list (Array.map (fun s -> s /. window_s) sums)

(* The set-up that runs, with [throwaway_setups] set-ups (drained and
   removed) before it and as many after the fleet has run, so that the
   set-up time, the median of all these readings, each taken after a full
   major collection, sees both ends of the run. A metrics registry is
   installed while the fleet runs, as the fleet CLI does under --metrics,
   so that the soak counters the jobs report can be checked against their
   events files. *)
let throwaway_setups = 7

let phase tally ~dir ~job_file ~seconds ~trace =
  Unix.mkdir dir 0o755;
  let setups = ref [] and setups_wall = ref [] in
  let setup_once k =
    Gc.full_major ();
    Trace.set_enabled trace;
    let probe_s = Calib.probe () in
    let t0 = Trace.now () in
    let o, cfg, queue = setup ~dir:(Filename.concat dir (Printf.sprintf "setup%d" k)) ~job_file in
    let all = ref [] in
    submit_while_room o queue ~all ~outstanding:(ref []);
    let wall = Trace.now () -. t0 in
    setups := Calib.scale ~probe_s wall :: !setups;
    setups_wall := wall :: !setups_wall;
    Trace.set_enabled false;
    (o, cfg, queue, !all)
  in
  let throwaways first =
    for k = first to first + throwaway_setups - 1 do
      let o, cfg, _, _ = setup_once k in
      O.drain o;
      ignore (O.run o : string);
      rm_rf cfg.O.out_dir
    done
  in
  throwaways 1;
  let registry = Telemetry.Metrics.create () in
  Telemetry.Metrics.install registry;
  let o, cfg, queue, first = setup_once 0 in
  let all = ref first and outstanding = ref first in
  let started_at = Trace.now () in
  let wall_s = run_fleet o queue ~all ~outstanding ~seconds ~trace in
  let heap_peak_mb = Run.heap_peak_mb () in
  Telemetry.Metrics.uninstall ();
  throwaways (throwaway_setups + 1);
  let dones =
    List.filter_map
      (fun line ->
        match Result.map Fleet.Journal.entry_of_json (J.parse line) with
        | Ok (Some (Fleet.Journal.Done { id; converged; trials; _ })) -> Some (id, converged, trials)
        | _ -> None)
      (read_lines cfg.O.journal_path)
  in
  let facts = List.filter_map (check_job tally ~dir:cfg.O.out_dir ~dones) (List.rev !all) in
  let total f = List.fold_left (fun acc x -> acc + f x) 0 facts in
  let counter name =
    int_of_float (Option.value ~default:0.0 (Telemetry.Metrics.counter_value registry name))
  in
  let folded = (total (fun f -> f.bursts), total (fun f -> f.recoveries)) in
  let reported = (counter "chaos.bursts", counter "chaos.recoveries") in
  Run.check tally (folded = reported)
    (lazy
      (Printf.sprintf "timeline bursts/recoveries %d/%d, soaks reported %d/%d" (fst folded)
         (snd folded) (fst reported) (snd reported)));
  {
    setup_s = List.rev !setups;
    setup_wall_s = List.rev !setups_wall;
    heap_peak_mb;
    out_dir = cfg.O.out_dir;
    facts;
    started_at;
    wall_s;
    stats = O.stats o;
    journal_lines = List.length (read_lines cfg.O.journal_path);
    journal_bytes = file_size cfg.O.journal_path;
    registry;
  }

let fact_counters (f : job_facts) =
  [
    ("interactions", float_of_int f.interactions);
    ("events_lines", float_of_int f.lines);
    ("events_bytes", float_of_int f.bytes);
    ("bursts", float_of_int f.bursts);
    ("recoveries", float_of_int f.recoveries);
    ("converged", float_of_int f.converged);
  ]

let snapshot_jobs = 4

(* Untraced over traced throughput, less one, for each window pair. *)
let window_overheads rates =
  let rates = Array.of_list rates in
  List.init (Array.length rates / 2) (fun k ->
      let a = rates.(2 * k) and b = rates.((2 * k) + 1) in
      (if traced_window (2 * k) then b /. a else a /. b) -. 1.0)

(* Per-layer metrics over all the run's jobs (counts and service times,
   which recording does not touch), and the tracing overhead: the median
   over the window pairs of the untraced window's throughput over the
   traced one's, less one. *)
let layer_metrics ~seconds t =
  let jobs = float_of_int (max 1 (List.length t.facts)) in
  let per_job x = float_of_int x /. jobs in
  let total f = List.fold_left (fun acc x -> acc + f x) 0 t.facts in
  let service = List.map (fun f -> f.service_s) t.facts in
  let waits = List.map (fun f -> f.job_s -. f.service_s) t.facts in
  let reg name =
    Option.value ~default:0.0 (Telemetry.Metrics.counter_value t.registry name) /. jobs
  in
  [
    ("fleet.queue_wait_s.p50", Run.median waits, "s");
    ("fleet.service_s.p50", Run.median service, "s");
    ("fleet.overhead_s_per_job", (t.wall_s -. Run.sum service) /. jobs, "s");
    ("fleet.ticks", per_job t.stats.O.tick, "count/op");
    ("journal.lines", per_job t.journal_lines, "count/op");
    ("journal.bytes", per_job t.journal_bytes, "B/op");
    ("fleet.retries", float_of_int t.stats.O.retries, "count");
    ("fleet.shed", float_of_int t.stats.O.shed, "count");
    ("events.lines_written", per_job (total (fun f -> f.lines)), "count/op");
    ("events.bytes_written", per_job (total (fun f -> f.bytes)), "B/op");
    ("soak.bursts", reg "chaos.bursts", "count/op");
    ("soak.recoveries", reg "chaos.recoveries", "count/op");
    ("soak.faults_applied", reg "chaos.faults_applied", "count/op");
    ("count.events", reg "engine.events", "count/op");
    ("count.pairs_probed", reg "engine.pairs_probed", "count/op");
    ("count.pairs_cached", reg "engine.pairs_cached", "count/op");
    ("count.null_skipped", reg "engine.null_skipped", "count/op");
    ("count.closure_size", reg "engine.closure_size", "count/op");
    ("count.productive_pairs", reg "engine.productive_pairs", "count/op");
    ( "monitor.updates_per_interaction",
      Engine_workloads.safe_div (reg "engine.monitor_updates") (reg "engine.interactions"),
      "ratio" );
    ("trace.overhead_share", Run.median (window_overheads (rates ~seconds t)), "ratio");
  ]

let run ~scratch ~seed ~seconds ~trace =
  let tally = Run.tally () in
  let dir = Filename.concat scratch "fleet" in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let job_file = Filename.concat dir "jobs.jsonl" in
  write_job_file ~path:job_file ~seed;
  let p = phase tally ~dir:(Filename.concat dir "run") ~job_file ~seconds ~trace in
  (* Exact counters of the first jobs, and a re-run of two of them by a
     bare worker whose events files must match the fleet's byte for byte. *)
  let counters =
    List.concat_map
      (fun (f : job_facts) -> Engine_workloads.prefixed f.job.Fleet.Job.id (fact_counters f))
      (List.filteri (fun i _ -> i < snapshot_jobs) p.facts)
    @ [
        ("fleet.failed", float_of_int p.stats.O.failed);
        ("fleet.retries", float_of_int p.stats.O.retries);
        ("fleet.shed", float_of_int p.stats.O.shed);
      ]
  in
  let recheck = Filename.concat dir "recheck" in
  Unix.mkdir recheck 0o755;
  List.iteri
    (fun i (f : job_facts) ->
      if i < 2 then begin
        let id = f.job.Fleet.Job.id in
        let outcome = Fleet.Worker.run ~out_dir:recheck ~attempt:1 f.job in
        Run.check tally
          (read_file outcome.Fleet.Worker.events_path
          = read_file (Filename.concat p.out_dir (id ^ ".events.jsonl")))
          (lazy (Printf.sprintf "job %s: events file not reproduced" id))
      end)
    p.facts;
  let layer = if trace then layer_metrics ~seconds p else [] in
  rm_rf dir;
  {
    Run.n = job_n;
    attempted = tally.Run.checked;
    failed = tally.Run.bad;
    failures = tally.Run.messages;
    setup_s = p.setup_s;
    op_s = List.map (fun f -> f.job_s) p.facts;
    timed_s = p.wall_s;
    rates = rates ~seconds p;
    heap_peak_mb = p.heap_peak_mb;
    counters;
    report =
      [
        ("jobs_per_s", float_of_int (List.length p.facts) /. p.wall_s, "1/s");
        ("wall.setup_s", Run.median p.setup_wall_s, "s");
        ("probe_s.p50", Run.median (Calib.all ()), "s");
      ];
    layer;
  }
