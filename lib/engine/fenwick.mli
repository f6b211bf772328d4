(** Growable Fenwick tree over non-negative integer weights.

    Supports appending zero-weight slots, point updates, an O(1) total,
    prefix sums, and weighted selection: {!find} maps a uniform integer
    target in [0, total) to a slot with probability proportional to its
    weight, in O(log capacity). The count engine keeps one tree per degree
    class (slot = class-local cell, weight = agent count) to draw a
    uniformly random agent of that class without scanning the cells, and
    one per class pair (slot = recorded productive pair, weight = pair
    mass) to draw the productive pair of a hit. *)

type t

val create : unit -> t
(** Empty tree (no slots). *)

val length : t -> int
(** Slots appended so far. *)

val total : t -> int
(** Sum of all slot weights. *)

val append : t -> unit
(** Append one slot with weight 0. Amortized O(1). *)

val add : t -> int -> int -> unit
(** [add t i delta] adjusts slot [i]'s weight by [delta]. O(log). *)

val prefix : t -> int -> int
(** [prefix t i]: the sum of the weights of slots [0..i], so a slot [i]
    of weight [w] covers the targets [prefix t i - w .. prefix t i - 1]
    of {!find}. O(log). Raises [Invalid_argument] out of range. *)

val find : t -> int -> int
(** [find t target] for [0 <= target < total t]: the unique slot [i] with
    [sum weights.(0..i-1) <= target < sum weights.(0..i)]. A uniform
    [target] therefore selects slots proportionally to weight. Raises
    [Invalid_argument] when [target] is out of range. *)
