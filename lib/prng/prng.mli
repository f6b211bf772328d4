(** Deterministic pseudo-random number generation for simulations.

    The generator is xoshiro256** (Blackman & Vigna), seeded through
    splitmix64 so that small integer seeds yield well-mixed initial states.
    Every simulation in this repository draws randomness exclusively from a
    value of type {!t}, making runs reproducible from a single integer seed
    and allowing independent streams to be derived with {!split}. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a generator deterministically from [seed]. Distinct
    seeds give (with overwhelming probability) uncorrelated streams. *)

val scripted : int list -> t
(** [scripted choices] is a generator in {e scripted} mode: each bounded
    primitive draw ({!int}, {!bool}, {!bits}, and the derived helpers) is
    answered by the next element of [choices] — which must lie in the
    draw's range, or [Invalid_argument] is raised — and by [0] once
    [choices] is exhausted. Every draw is recorded together with its bound
    (see {!script_trace}), which lets a caller enumerate the complete
    finite choice tree of a randomized function exactly. The unbounded
    primitives ({!bits64}, {!float}, {!bernoulli}, {!split}) raise
    [Invalid_argument] in scripted mode. *)

val is_scripted : t -> bool
(** [true] iff the generator was built by {!scripted}. *)

val script_trace : t -> (int * int) list
(** The [(choice, bound)] pairs drawn so far from a scripted generator, in
    draw order. Raises [Invalid_argument] on a non-scripted generator. *)

val copy : t -> t
(** [copy g] is a generator with identical state that evolves separately. *)

val split : t -> t
(** [split g] draws from [g] to create an independent child generator.
    The child stream is uncorrelated with the remainder of [g]'s stream. *)

val split_many : t -> int -> t array
(** [split_many g k] is [k] independent child generators. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int g bound] is uniform on [0, bound). Requires [bound > 0]. Unbiased
    (rejection sampling). *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform on [lo, hi] inclusive. Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val float : t -> float
(** Uniform on [0, 1). *)

val bernoulli : t -> p:float -> bool
(** [bernoulli g ~p] is [true] with probability [p]. *)

val distinct_pair : t -> int -> int * int
(** [distinct_pair g n] is an ordered pair [(i, j)] with [i <> j], uniform
    over the [n * (n-1)] ordered pairs of [0..n-1]. Requires
    [2 <= n <= 2^31]. *)

val distinct_pair_packed : t -> int -> int
(** {!distinct_pair} packed by {!pack_pair}: the same draws in the same
    order, without allocating the tuple. *)

val pack_pair : int -> int -> int
(** [pack_pair i j], for [0 <= i, j < 2^31], is one non-negative int
    holding both indices; {!pair_fst} and {!pair_snd} take it apart. *)

val pair_fst : int -> int
val pair_snd : int -> int

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation g n] is a uniform random permutation of [0..n-1]. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val bits : t -> width:int -> int
(** [bits g ~width] is a uniform [width]-bit non-negative integer,
    [0 <= width <= 62]. In scripted mode the width is additionally capped
    at 20 bits (the choice space is enumerated exhaustively). *)
