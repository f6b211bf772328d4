(** The optimizing pass over {!Repr.t}.

    {!Repr.of_enumerable} already packs and densely codes the declared
    state space, so memoization is the one pass. It records a provenance
    line in the IR's log. [pipeline] is the composition used by
    {!Kernel.compile}. *)

val default_max_cells : int
(** Default memoization budget, [2{^22}] table cells. *)

val memoize : ?max_cells:int -> 'a Repr.t -> 'a Repr.t
(** Tabulate the transition over all [size²] ordered code pairs when that
    fits [max_cells] (otherwise log the skip and return the IR unchanged).
    Each pair is probed once under a {!Prng.scripted} stream: pairs that
    complete without drawing are {e static} and tabulated; pairs that draw
    (or raise, as randomized transitions do under an empty script) are
    {e dynamic} and left to the interpreter at run time. Also decides the
    {!Repr.t.exact} flag. Raises {!Repr.Escape} if a static output leaves
    the declared space. *)

val pipeline : ?max_cells:int -> 'a Engine.Enumerable.t -> 'a Repr.t
(** [Repr.of_enumerable |> memoize]. *)
