type outcome = {
  job : Job.t;
  attempt : int;
  converged : int;
  trials : int;
  wall_s : float;
  events_path : string;
  manifest_path : string;
}

let events_path ~out_dir (job : Job.t) = Filename.concat out_dir (job.Job.id ^ ".events.jsonl")

let manifest_path ~out_dir (job : Job.t) =
  Filename.concat out_dir (job.Job.id ^ ".manifest.json")

let run ~out_dir ?kill_at ?(stall = false) ~attempt (job : Job.t) =
  let t0 = Unix.gettimeofday () in
  let plan =
    (* Admission validated the spec; a journal edited by hand can still
       reach here, so fail the attempt rather than assert. *)
    match Job.plan job with Ok plan -> plan | Error msg -> failwith msg
  in
  let kill at =
    {
      Run.hook =
        (fun exec ->
          Engine.Exec.on exec (fun ev ->
              if Engine.Instrument.interactions ev >= at then raise Chaos.Fleet_faults.Killed));
    }
  in
  (* The entropy for trial [i] depends only on (job.seed, i): identical on
     every attempt, worker and resume — the heart of the determinism
     contract. The per-attempt chaos/backoff draws live in the
     orchestrator, never here. No pool: the first raising trial ends the
     attempt. *)
  let batch =
    Run.batch ?hook:(Option.map kill kill_at) ~events:true ~seed:job.Job.seed
      ~trials:job.Job.trials plan
  in
  let converged =
    Array.fold_left
      (fun acc r -> match r with Ok outcome when Run.succeeded outcome -> acc + 1 | _ -> acc)
      0 batch.Run.results
  in
  (* A kill drawn past the last event the trials produced must still
     fail the attempt: the buffers are discarded either way, so raising
     here is observationally the same as the in-run hook firing. *)
  if kill_at <> None then raise Chaos.Fleet_faults.Killed;
  if stall then raise Chaos.Fleet_faults.Stalled;
  (* Outputs are (re)written only on a fully successful attempt, events
     first, manifest second — the orchestrator journals [done] third.
     Every prefix of that order is safe to crash in: a re-run rewrites
     byte-identical events, so the files are exactly-once in content even
     when execution is at-least-once. *)
  let ev_path = events_path ~out_dir job in
  Run.write_events batch ev_path;
  let wall_s = Unix.gettimeofday () -. t0 in
  let mf_path = manifest_path ~out_dir job in
  let manifest =
    Telemetry.Manifest.make
      ~run:("fleet:" ^ job.Job.id)
      ~protocol:job.Job.protocol
      ~engine:(Engine.Exec.kind_to_string job.Job.engine)
      ~n:job.Job.n ~seed:job.Job.seed ~trials:job.Job.trials
      ~params:
        ([
           ("scenario", Telemetry.Json.String job.Job.scenario);
           ("kernel", Telemetry.Json.String (Job.kernel_to_string job.Job.kernel));
           ("group", Telemetry.Json.String job.Job.group);
         ]
        @ (match job.Job.chaos with
          | Some spec -> [ ("chaos", Telemetry.Json.String spec) ]
          | None -> [])
        @
        match job.Job.deadline with
        | Some d -> [ ("deadline", Telemetry.Json.Int d) ]
        | None -> [])
      ~wall_clock_s:wall_s ()
  in
  Telemetry.Manifest.write ~path:mf_path manifest;
  {
    job;
    attempt;
    converged;
    trials = job.Job.trials;
    wall_s;
    events_path = ev_path;
    manifest_path = mf_path;
  }
