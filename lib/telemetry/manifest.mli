(** Run manifests: what was run, with what, for how long.

    An events or metrics file answers "what happened"; the manifest
    answers "what produced it" — enough to re-run the batch bit-for-bit
    (protocol, parameters, seed, trials, engine) and to place it (jobs,
    wall clock, git revision, argv). One manifest is written alongside
    every batch: [ssr_sim --events FILE] writes [FILE.manifest.json],
    [experiments_main --out-dir DIR] writes [DIR/<experiment>.manifest.json]. *)

type t = {
  run : string;  (** what ran: ["ssr_sim"], an experiment name, … *)
  protocol : string option;
  engine : string option;
  n : int option;
  seed : int;
  trials : int;
  jobs : int;
  params : (string * Json.t) list;
      (** free-form extras (scenario, mode, horizon scale, …) *)
  wall_clock_s : float;
  git : string option;  (** [git describe] of the working tree, if available *)
  argv : string list;
}

val make :
  run:string ->
  ?protocol:string ->
  ?engine:string ->
  ?n:int ->
  seed:int ->
  ?trials:int ->
  ?jobs:int ->
  ?params:(string * Json.t) list ->
  wall_clock_s:float ->
  unit ->
  t
(** Fills [git] with [git describe --always --dirty] of the current
    directory ([None] when git or the repository is unavailable), run
    once per process, and [argv] from [Sys.argv]. [trials]
    and [jobs] default to 1. *)

val to_json : t -> Json.t
(** Versioned ([{"v":1,...}]); also records the events-schema version the
    producing binary speaks ([events_schema]). *)

val write : path:string -> t -> unit
