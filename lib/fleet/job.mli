(** Fleet job specifications.

    One job = one batch of simulation trials (to-stability, or a chaos
    soak when [chaos] is set) under one protocol configuration, executed
    by a single supervised worker task. Jobs arrive as JSONL — one JSON
    object per line in a job file or on the control socket — and are
    validated {e at admission}: a malformed spec is shed with a message,
    it never reaches a worker. Only [id] and [n] are required; every
    other field has the default documented below.

    {b Determinism.} Everything a worker draws derives from [seed] alone
    (per-trial children are pre-split in trial order), never from the
    attempt number or scheduling — so a retried attempt replays the
    identical simulation and the job's events file is bit-identical
    however many attempts, workers or resumes it took. Fleet jobs run on
    the complete interaction graph (the paper's model); restricted
    topologies stay in [ssr_sim]. *)

type kernel = Interp | Compiled

type t = {
  id : string;  (** unique in the fleet; 1-64 chars of [A-Za-z0-9_.-] (names the job's output files) *)
  protocol : string;  (** silent | optimal | sublinear ({!Run.protocols}) *)
  n : int;  (** population size, >= 2 *)
  h : int;  (** sublinear history depth (default 2) *)
  seed : int;  (** PRNG root for the job (default 1) *)
  scenario : string;  (** initial-configuration scenario (default uniform) *)
  engine : Engine.Exec.kind;  (** default Agent; Count requires a deterministic protocol *)
  kernel : kernel;  (** default Interp *)
  trials : int;  (** independent trials in the job (default 1) *)
  chaos : string option;  (** [Chaos.Spec] — soak instead of run-to-stability *)
  horizon : float option;  (** soak length, parallel time units (chaos only) *)
  sla : float option;  (** recovery SLA budget, time units (chaos only) *)
  deadline : int option;
      (** per-attempt interaction budget; an attempt still unconverged at
          the deadline fails (and retries). On the {e interaction} clock,
          not wall time, so deadline verdicts are deterministic. *)
  retries : int;  (** attempts after the first before the job fails (default 2) *)
  group : string;  (** fair-share scheduling class (default: the protocol) *)
}

val make :
  id:string ->
  protocol:string ->
  n:int ->
  ?h:int ->
  seed:int ->
  ?scenario:string ->
  ?engine:Engine.Exec.kind ->
  ?kernel:kernel ->
  ?trials:int ->
  ?chaos:string ->
  ?horizon:float ->
  ?sla:float ->
  ?deadline:int ->
  ?retries:int ->
  ?group:string ->
  unit ->
  (t, string) result
(** Builds and validates a spec (same checks as {!of_json}). *)

val of_json : Telemetry.Json.t -> (t, string) result
(** Parses and fully validates one spec: id shape, ranges, the
    protocol, scenario, engine and kernel against {!Run.check} (an
    unknown scenario, or a count engine or compiled kernel with a
    randomized protocol, is rejected here), and the chaos spec via
    [Chaos.Spec.parse]. *)

val of_line : string -> (t, string) result
(** [of_json] over one JSONL line. *)

val to_json : t -> Telemetry.Json.t
(** Canonical encoding; [of_json (to_json t) = Ok t]. The journal stores
    specs in this form. *)

val kernel_to_string : kernel -> string

val plan : ?topology:Engine.Topology.t -> t -> (Run.plan, string) result
(** The spec as a {!Run.plan}: [chaos] selects a soak of [horizon]
    (default: 8 confirmation windows) with recovery budget [sla], both
    converted from parallel time to interactions by
    [Telemetry.Timeline.to_interactions]; otherwise
    a run to stability bounded by [deadline]. Compiles the kernel when
    [kernel = Compiled]. [topology] is for the single-run CLI: fleet jobs
    run on the complete graph. *)
