(** One supervised job attempt: run the trials, then publish outputs.

    A worker is {!Run.batch} without a pool — every trial of the job in
    order inside one pool task, buffering telemetry in memory — plus its
    deadline, kill hook and output writing; only a fully successful attempt
    flushes the events file and writes the manifest (events first,
    manifest second, caller's journal entry third — see
    {!Journal.replay} for why that order makes crash recovery
    idempotent). A failed attempt — protocol exception, blown
    {!Job.deadline} ({!Run.Deadline_exceeded}), injected {!Chaos.Fleet_faults.Killed} /
    [Stalled] — leaves {e no} partial outputs behind and surfaces as the
    raised exception, which the orchestrator traps with
    {!Supervise.run}.

    Trial entropy is pre-split from [job.seed] in trial order, so for a
    fixed spec the events file content is a pure function of the spec:
    bit-identical across attempts, worker counts, and kill/resume
    cycles. *)

type outcome = {
  job : Job.t;
  attempt : int;
  converged : int;
      (** trials that converged (or, under a chaos spec, met their SLA) *)
  trials : int;
  wall_s : float;
  events_path : string;
  manifest_path : string;
}

val events_path : out_dir:string -> Job.t -> string
(** [<out_dir>/<id>.events.jsonl] *)

val manifest_path : out_dir:string -> Job.t -> string
(** [<out_dir>/<id>.manifest.json] *)

val run : out_dir:string -> ?kill_at:int -> ?stall:bool -> attempt:int -> Job.t -> outcome
(** Executes one attempt. [kill_at] arms a hook raising [Killed] once
    the interaction clock reaches it (and unconditionally before outputs
    are written, so a drawn kill always fails the attempt); [stall] runs
    the attempt but withholds its result, raising [Stalled]. Raises on
    any trial failure — callers wrap with {!Supervise.run}. *)
