(** Internal metrics registry: counters, gauges, histograms.

    A registry is a named bag of numbers filled in while a workload runs
    and dumped once at the end as a JSON summary ([--metrics FILE],
    [experiments_main --out-dir], perfbench's fleet-soak workload). It is
    {e not} on any engine hot path: the engines keep their own plain mutable
    counters (see [Engine.Exec.stats]) and the registry is only touched at
    trial/run granularity, where a mutex acquisition is noise. All
    operations are therefore thread-safe — pool domains may observe into
    the same registry concurrently.

    {2 Ambient registry}

    Library code that should stay telemetry-agnostic (the experiment trial
    runner) checks {!ambient} — a process-global optional registry — and
    records only when one is installed. When none is installed the cost is
    one atomic read per {e trial}, i.e. nothing. *)

type t

val create : unit -> t

val incr : t -> string -> unit
(** [incr t name] adds 1 to counter [name] (created at 0 on first use). *)

val add : t -> string -> float -> unit
(** Adds to a counter. Counters are monotonic by convention (the dump does
    not enforce it). *)

val set : t -> string -> float -> unit
(** Sets gauge [name]. *)

val observe : t -> string -> float -> unit
(** Appends one observation to histogram [name]. *)

val counter_value : t -> string -> float option
val gauge_value : t -> string -> float option
val observations : t -> string -> float array
(** Observations of histogram [name] in recording order ([[||]] when the
    histogram does not exist). *)

val to_json : t -> Json.t
(** [{"v":1, "counters":{..}, "gauges":{..}, "histograms":{name:
    {"count","min","max","mean","p50","p95","total"}}}] with names sorted,
    so the dump is deterministic. Empty sections are present but empty. *)

val write : path:string -> t -> unit
(** Writes {!to_json} (plus a trailing newline) to [path]. *)

(** {2 Ambient registry} *)

val install : t -> unit
(** Makes [t] the ambient registry (replacing any previous one). *)

val uninstall : unit -> unit

val ambient : unit -> t option

val record_exec : 'a Engine.Exec.t -> unit
(** Publishes [Engine.Exec.stats] of the executor into the ambient
    registry as [engine.<name>] counters (pairs_probed, pairs_cached,
    classes_live, null_skipped, …) — the single scrape point drivers call
    at run end so engine internals land in metrics files and the
    dashboard without per-caller plumbing. No-op without an ambient
    registry; counters {e accumulate} across trials recorded into the
    same registry. *)
