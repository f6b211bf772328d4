(** Protocol intermediate representation.

    An ['a Repr.t] (surfaced as [Ir.t]) describes a protocol's finite
    state space as a vector of bounded integer {e fields} together with
    its transition relation, derived from an {!Engine.Enumerable}
    descriptor. Derivation ({!of_enumerable}) already assigns the codes:

    - it {b packs} every declared state into a single int by mixed-radix
      packing of its field values;
    - it then drops the junk codes of the packed product space (field
      combinations no declared — hence, by the closure analysis, no
      reachable — state occupies) and renumbers the live codes densely
      [0..size-1] in ascending packed order, reusing
      {!Analysis.Statespace} as the ground truth for liveness.

    The one optimizing pass, {!Passes.memoize}, tabulates the transition
    over all code pairs for small state spaces.

    The record is deliberately {e transparent}: the pass is a plain
    function that pattern-matches and rebuilds it, and tests can assert
    on any field. Mutating the arrays voids the warranty. *)

type field = { fname : string; frange : int }
(** A field declaration as the IR sees it: values in [0, frange). *)

type table = { out_i : int array; out_j : int array }
(** Memoized transition: cell [ci * m + cj] holds the output codes, or
    [-1] in [out_i] when the pair is dynamic (draws randomness) and must
    fall back to the interpreted transition. *)

exception Escape of string
(** A state outside the declared space crossed the kernel boundary. *)

type 'a t = {
  enumerable : 'a Engine.Enumerable.t;
  space : 'a Analysis.Statespace.t;  (** interned declared state space *)
  fields : field list;
  getters : ('a -> int) list;  (** one per field, same order *)
  synthesized : string option;
      (** [Some reason] when the declared fields were unusable (or absent)
          and a single declared-state-index field was synthesized *)
  packed_codes : int;  (** product of field ranges *)
  code_of_index : int array;  (** declared-state index -> live code *)
  index_of_code : int array;  (** live code -> declared-state index *)
  table : table option;  (** set by the memoize pass *)
  static_pairs : int;
  dynamic_pairs : int;
  exact : bool option;
      (** Known after memoization. [Some true] iff every static transition
          output is [protocol.equal] to its declared representative — then
          decode/encode is the identity on every trajectory and a compiled
          run is bit-identical to the interpreted one on either engine.
          [Some false]: outputs are normalized on encode (the kernel runs
          the bisimulation quotient): observables agree, same-seed raw
          state sequences need not. *)
  log : string list;  (** pass provenance, newest first *)
}

val of_enumerable : 'a Engine.Enumerable.t -> 'a t
(** Derive the IR. Declared fields are validated — every range positive,
    the product representable, every declared state in range, the field
    vector injective over the declared space — and replaced by a synthetic
    state-index field (with the reason logged and recorded in
    [synthesized]) if anything fails, so derivation itself never raises
    for a descriptor {!Analysis.Statespace} accepts. The result is packed
    and densely coded, its log records the [derive], [pack] and
    [dead-code] steps, and it is not memoized. *)

val size : 'a t -> int
(** Number of declared states (= live codes). *)

val encode_opt : 'a t -> 'a -> int option
(** Code of a state ([Engine.Enumerable] normalization applied), [None]
    when outside the declared space. *)

val encode : 'a t -> 'a -> int
(** Like {!encode_opt} but raises {!Escape} with a diagnostic. *)

val decode : 'a t -> int -> 'a
(** Declared state of a live code. Raises [Invalid_argument] on a code
    out of range. *)

val logged : 'a t -> string -> 'a t
(** Append a provenance line. *)

val field_names : 'a t -> string list
(** Field names in packing order (a single synthetic ["state-index"] when
    [synthesized] is set). *)

val field_vec : 'a t -> int -> int array
(** Field values of a live code, in packing order. *)

val table_lookup : 'a t -> int -> int -> (int * int) option
(** Memoized output codes of the ordered pair [(ci, cj)], [None] when the
    pair is dynamic (draws randomness) or the IR is not memoized. Raises
    [Invalid_argument] on out-of-range codes. *)

val iter_static : 'a t -> (int -> int -> int -> int -> unit) -> unit
(** [iter_static t f] calls [f ci cj oi oj] for every static (coin-free)
    cell of the memoized table, in row-major code order. No-op when the IR
    is not memoized. *)

val pp : Format.formatter -> 'a t -> unit
(** Stable, reviewable dump: fields, code-space counts, transition-pair
    classification, pass log, and (for spaces of at most 64 states) the
    full code -> state map. The golden tests pin this output. *)
