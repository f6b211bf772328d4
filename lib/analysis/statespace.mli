(** Interned declared state space of an {!Engine.Enumerable} descriptor.

    Assigns each declared state a dense index [0 .. size-1] and answers
    membership queries for arbitrary states (after {!Engine.Enumerable}
    normalization) in expected O(1) through an {!Engine.Interner} keyed by
    the polymorphic hash, with [protocol.equal] resolving collisions.
    Construction validates the descriptor's contract: the declared list is
    duplicate-free and [normalize] is the identity on it
    ([Invalid_argument] otherwise).

    The structure is immutable after construction, so it may be shared
    freely across {!Engine.Pool} worker domains. *)

type 'a t

val of_enumerable : 'a Engine.Enumerable.t -> 'a t
val size : 'a t -> int

val state : 'a t -> int -> 'a
(** The declared state at an index. *)

val states : 'a t -> 'a array
(** All declared states, in index order. Do not mutate. *)

val index : 'a t -> 'a -> int
(** [index t s] is the index of [normalize s] in the declared space, or
    [-1] — an {e escape} — if the state is undeclared. A hit allocates
    nothing beyond what [normalize] does. Robust against
    normalized states that are [equal] but not structurally equal to their
    stored representative (falls back to a linear scan before reporting an
    escape). *)
