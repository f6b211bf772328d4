(** Interaction-graph topologies.

    The paper studies the complete interaction graph (any pair may
    interact) and notes it is the hardest case for self-stabilizing leader
    election, while non-complete topologies are studied in related work
    ([10, 25, 26, 57, 60]). This module provides interaction graphs and a
    scheduler sampler — a uniformly random {e edge} with a uniformly random
    orientation — to plug into {!Sim}, so the protocols built for the
    complete graph can be observed on rings, stars and random regular
    graphs (where direct-collision detection genuinely breaks, motivating
    the paper's assumption). *)

type t

val complete : n:int -> t

val ring : n:int -> t
(** Cycle 0–1–…–(n−1)–0. Requires [n >= 3]. *)

val star : n:int -> t
(** Hub agent 0 connected to everyone else. *)

val random_regular : Prng.t -> n:int -> degree:int -> t
(** A connected [degree]-regular graph, built as the union of [degree/2]
    uniformly random Hamiltonian cycles (hence [degree] must be even,
    ≥ 2); resampled until simple. Requires [n >= degree + 1]. *)

val size : t -> int
(** Number of agents. *)

val edge_count : t -> int

val degree : t -> int -> int

val is_connected : t -> bool

val sampler : t -> Prng.t -> int
(** Uniform random edge, uniform random orientation, as a
    {!Prng.pack_pair}-packed (initiator, responder) pair — the scheduler
    for {!Sim.make_with}'s [sampler] argument. On {!complete} this
    coincides with the paper's uniform ordered-pair scheduler. *)

val name : t -> string

(** {2 Degree-class lumping}

    The count engine generalizes its per-state counts to per-(state,
    degree-class) counts: agents of equal degree are exchangeable under
    the uniform-edge scheduler whenever every class-pair subgraph is
    empty or complete, and then the lumped dynamics are {e exactly} the
    original chain projected onto counts. [classes] carries what the
    engine needs: per-class sizes, the ordered class-pair mixing counts
    [mix] (each undirected edge contributes one pair per orientation, so
    they sum to twice the edge count), and the [exact] verdict.

    When [exact] is [false] (e.g. a ring or a random regular graph, where
    same-class subgraphs are neither empty nor complete), running the
    count engine over these classes is the {e annealed} approximation:
    the degree sequence is honored but the fixed wiring is resampled
    every interaction — equivalently, a [nc = 1] regular graph lumps to
    complete-graph dynamics. Callers are expected to surface that
    honestly (see [ssr_sim]'s warning and Exp_topology's gap
    measurement). *)

type classes = {
  graph : string;  (** name of the topology the classes were built from *)
  agents : int;  (** total population *)
  nc : int;  (** number of degree classes, ordered by ascending degree *)
  class_of : int array;  (** agent -> class id *)
  sizes : int array;  (** class id -> population *)
  members : int array array;  (** class id -> member agents, ascending *)
  mix : int array array;
      (** [mix.(a).(b)]: ordered adjacent pairs (initiator in [a],
          responder in [b]); sums to [2 * edge_count] *)
  exact : bool;  (** every class-pair subgraph empty or complete *)
}

val degree_classes : t -> classes
(** Lump a topology by degree. O(n + edges). *)

val complete_classes : n:int -> classes
(** The trivial single-class lumping of {!complete} — what the count
    engine uses when no topology is given. Requires [n >= 2]. *)
