(** Shared pair-outcome relation over a declared state space.

    Both the closure/invariant-lint stages ({!closure_stage},
    {!lint_stage}) and the exhaustive model checker ({!Model_check}) quantify over the same object: the
    outcomes of the transition applied to {e every} ordered pair of
    declared states, with every synthetic-coin outcome enumerated exactly
    ({!Coins}). Historically each stage ran its own enumeration; [Relation]
    runs the scan {e once} and serves both consumers, which halves the
    dominant cost of analyzing a protocol instance (the scan is Θ(s²)
    transition enumerations) and guarantees the stages agree on what the
    relation is.

    The scan is distributed over the {!Engine.Pool} by initiator-state
    row. Findings (escapes from the declared space, invariant violations,
    broken determinism claims) are summarized per row exactly as the
    closure stage reports them; the index-pair table the model checker
    consumes is retained only on request ([keep_tables]), because it costs
    Θ(s²) memory while the closure summary is O(findings) — the driver
    requests it exactly when the model check will actually run (small
    spaces), so large-space analyses keep their flat memory profile. *)

type 'a t

val scan :
  pool:Engine.Pool.t -> keep_tables:bool -> 'a Engine.Enumerable.t -> 'a Statespace.t -> 'a t
(** Enumerate every ordered pair of declared states once. *)

val closure_stage : 'a t -> Report.stage
(** The [closure] stage: outputs must normalize into the declared space; a
    [deterministic] claim must mean no draws and a single outcome. *)

val lint_stage : 'a t -> Report.stage
(** The [invariant-lint] stage: declared invariants hold on every declared
    state and every transition output. *)

val tables : 'a t -> (int * int) list array array option
(** [tables r] is the deduplicated output-index pairs of every ordered
    input pair — [Some] iff the scan was run with [keep_tables:true] and
    no output escaped the declared space (the table is meaningless
    otherwise). *)

val escape_pair : 'a t -> string option
(** First (scan-order) input pair with an escaping outcome, formatted
    ["(a, b)"] — the model checker's bail-out message. *)

val outcomes : 'a t -> int
(** Total transition outcomes enumerated across all pairs. *)
