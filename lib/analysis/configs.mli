(** Configurations as multisets of interned state indices.

    Agents are anonymous, so a configuration of [n] agents over [s]
    declared states is a multiset — canonically a {e nondecreasing} length-
    [n] array of indices in [0 .. s-1]. There are [C(s + n - 1, n)] of
    them, each numbered by its position in {!iter}'s order. *)

val count : states:int -> n:int -> int option
(** [C(states + n - 1, n)], or [None] when it exceeds ~1e15 (the caller
    should skip exhaustive analysis long before that). *)

val key : states:int -> n:int -> int array -> int
(** [key ~states ~n config] is the position of the sorted configuration
    [config] of [n] agents in {!iter}'s order, in [0 .. count - 1]; it
    fits an [int] whenever {!count} does. Apply [key ~states ~n] once and
    reuse it: it tabulates the binomials it needs. *)

val iter : states:int -> n:int -> (int array -> unit) -> unit
(** Call [f] on every sorted configuration, in lexicographic order. The
    array is reused between calls — copy it to retain it. *)

val multiplicities : int array -> (int * int) list
(** [(state index, multiplicity)] pairs of a sorted configuration, in
    increasing index order. *)

val replace_pair : int array -> a:int -> b:int -> a':int -> b':int -> int array
(** The sorted successor configuration after one interaction takes an
    agent in state [a] and one in state [b] to [a'] and [b']. The input
    must contain [a] and [b] (with multiplicity 2 if [a = b]); the input
    is not mutated. *)
