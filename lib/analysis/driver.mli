(** Orchestrates the four analyses for a protocol instance.

    Stage order: [state-count] (declared closed form vs. enumeration vs.
    the matching Table 1 row), [closure] and [invariant-lint] (one scan,
    {!Relation}), [silence] and [model-check] (one chain build,
    {!Model_check}: the silence stage reads the chain's per-configuration
    flags, so configurations are enumerated once per instance). An
    exception inside a stage becomes that stage's failure — an analyzer
    crash must never read as a pass — and a descriptor that violates the
    {!Statespace} contract fails fast with a single [state-count] stage. *)

val default_max_configs : int
(** 200_000 — comfortably covers the [*_small] registry instances at
    [n <= 4] while keeping any single model check under a few seconds. *)

val analyze_enumerable :
  pool:Engine.Pool.t ->
  max_configs:int ->
  key:string ->
  table1:bool ->
  'a Engine.Enumerable.t ->
  Report.t
(** Analyze one descriptor directly (used by tests). *)

val analyze_entry :
  pool:Engine.Pool.t -> max_configs:int -> n:int -> Registry.entry -> Report.t

val analyze_all :
  pool:Engine.Pool.t -> max_configs:int -> ns:int list -> Registry.entry list -> Report.t list
(** Every entry at every population size, in catalogue order. *)
