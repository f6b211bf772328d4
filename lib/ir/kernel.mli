(** Compiled protocol kernel.

    The end of the {!Passes} pipeline: a protocol running over packed int
    codes ([int -> int -> int * int] steps), with the pack/unpack
    witnesses needed to move states across the kernel boundary and the
    counters the executor surfaces as [kernel.*] stats.

    The compiled transition serves memoized {e static} pairs from the
    table with two array reads and no allocation; {e dynamic} pairs (and
    everything, when memoization was skipped) decode, run the source
    transition with the {e real} rng — so randomness consumption is
    identical to the interpreter's — and re-encode. A tableless kernel is
    therefore the interpreter plus two decodes and two {!Repr.encode}
    calls per step: it cannot beat the interpreter, only trail it by the
    encodes' interner lookups. Observations
    ([rank], [is_leader]) are precomputed per-code arrays, so the
    compiled protocol satisfies {!Engine.Protocol.validate} exactly when
    the source does. *)

type 'a t = {
  ir : 'a Repr.t;
  source : 'a Engine.Protocol.t;
  compiled : int Engine.Protocol.t;
      (** same [name]/[n]/[deterministic] as the source; [equal] is
          [Int.equal]; [pp] decodes *)
  compile_s : float;  (** wall-clock pipeline time, seconds *)
  memo_hits : int ref;
      (** steps served from the memo table. Plain (non-atomic) counters:
          an atomic RMW on the memoized fast path costs more than the
          table lookup it instruments. When one kernel is shared across
          domains ([--trials]) concurrent increments may lose updates —
          the counters are best-effort diagnostics, never semantics. *)
  dynamic_steps : int ref;  (** steps interpreted at run time (same caveat) *)
}

val compile : ?max_cells:int -> 'a Engine.Enumerable.t -> 'a t
(** Run the full {!Passes.pipeline} and build the kernel.
    [max_cells] bounds the memo table (see {!Passes.memoize}). *)

val of_ir : 'a Repr.t -> 'a t
(** Build a kernel from an IR, memoized or not (an unmemoized IR
    interprets every step). [compile_s] covers only the witness
    construction. *)

val encode : 'a t -> 'a -> int
(** Raises {!Repr.Escape} outside the declared space. *)

val decode : 'a t -> int -> 'a
val states : 'a t -> int

val step : 'a t -> Prng.t -> int -> int -> int * int
(** One compiled transition (the [compiled.transition]). *)

val exact : 'a t -> bool
(** [true] iff memoization proved the kernel {e exact}: every static
    output is its own declared representative, so compiled trajectories
    are bit-identical to interpreted ones under the same seed. [false]
    means quotient semantics (or that memoization was skipped and
    exactness is unknown): observables still agree, raw state sequences
    may differ by normalization. *)

val stats : 'a t -> (string * float) list
(** The [kernel.*] counters: [kernel.states], [kernel.packed_codes],
    [kernel.dead_codes], [kernel.table_cells], [kernel.static_pairs],
    [kernel.dynamic_pairs], [kernel.compile_s], [kernel.memo_hits],
    [kernel.dynamic_steps], [kernel.exact] (1/0). *)

val exec :
  ?topology:Engine.Topology.t ->
  kind:Engine.Exec.kind ->
  'a t ->
  init:'a array ->
  rng:Prng.t ->
  'a Engine.Exec.t
(** Run the kernel on either engine behind the standard executor surface:
    the inner engine, built by {!Engine.Exec.make} (so [topology] means
    what it means there), works on int codes; the wrapper encodes/decodes
    at the boundary ([state], [snapshot], [inject], [corrupt]) so callers
    see source states, and [stats] appends {!stats} to the engine's own.
    Raises {!Repr.Escape} if [init] contains undeclared states. *)
