(** Deterministic open-addressing cache from packed ordered cell pairs to
    probed transition outcomes — the memory behind the lazy count engine.

    A flat int -> int table with linear probing and a fixed seedless
    splitmix64-style finalizer hash: no allocation on lookup, no boxed
    buckets, and — the property the determinism lint cares about — layout
    is a pure function of the insertion sequence. The engine only ever
    inserts and looks up (never iterates), so results cannot depend on
    table order at all.

    Null entries are budgeted: {!add_null} refuses once the limit is
    reached, and the engine falls back to re-probing such pairs (the lazy
    kernel's exactness never depends on a pair being cached). The engine
    also reads the limit B as its admission scale and offers a null only
    when every live pair needing an entry fits in B or the pair carries
    at least 1/B of the scheduler. Productive entries ({!add}) always
    succeed, keeping the cache consistent with the productive adjacency
    built next to it. *)

type t

val absent : int
(** Reserved value returned by {!find} for missing keys ([min_int]);
    never storable. *)

val create : ?null_limit:int -> unit -> t
(** Empty cache. [null_limit] (default [2^21]) caps the number of cached
    null outcomes; growth beyond it degrades to re-probing, not failure. *)

val find : t -> int -> int
(** The value stored for a key, or {!absent}. Keys are non-negative. *)

val add : t -> int -> int -> unit
(** Insert or overwrite. Raises [Invalid_argument] on a negative key or
    the reserved {!absent} value. *)

val add_null : t -> int -> int -> bool
(** Like {!add}, but counts toward the null budget; [false] (and no
    insertion) once the budget is exhausted. *)

val size : t -> int
(** Entries stored. *)

val nulls : t -> int
(** Null entries stored (the budgeted kind). *)

val null_limit : t -> int
(** The null budget the cache was created with. *)
