(** Lazy count-based (Gillespie-style) simulation for deterministic
    protocols.

    {!Sim} executes every scheduled interaction, productive or not; near a
    silent configuration almost all interactions are null, so simulating
    Silent-n-state-SSR's Θ(n²) parallel time costs Θ(n³) steps. This engine
    instead tracks the configuration as {e counts of distinct states} —
    generalized to per-(state, degree-class) counts when a
    {!Topology.classes} lumping is supplied — discovers which ordered cell
    pairs have non-null transitions (possible because the protocol is
    deterministic), and jumps straight over interactions that are known to
    be null: the number of intervening skipped interactions is geometric
    with the exact per-tick probability of hitting a pair {e not} known
    null. The embedded jump chain and the interaction clock are sampled
    exactly, so results are distributed identically to {!Sim}.

    Pair knowledge is built lazily. Initially live cells are probed
    eagerly against each other when there are few enough of them (the
    engine is then {e drained}: silence is the O(1) observation that no
    productive pair carries weight, so stabilization of silent protocols
    is measured exactly, with no confirmation window), and each cell that
    later {e becomes} live is folded in at that moment. Cells that are
    merely discovered as transition outcomes but never occur are never
    probed — which is what lets counter-carrying protocols such as
    Optimal-silent-SSR run here at n = 10⁶, where the old eager closure
    exploded. When the live-cell set outgrows the eager budget the engine
    drops (permanently) to fully lazy probing: pairs are probed the first
    time the scheduler draws them, null outcomes are cached only when
    they can pay for their slot (see {!pairs_cached}), and the silence
    oracle degrades to three-valued (see {!silent}).

    Correctness is tracked incrementally through the same {!Monitor} the
    agent engine uses, fed with multiset deltas, and the engine supports
    the full fault-injection surface ({!inject}, {!corrupt}) so recovery
    experiments run at populations the agent engine cannot reach. *)

type 'a t

val make :
  ?classes:Topology.classes ->
  ?init_probe:bool ->
  ?null_budget:int ->
  protocol:'a Protocol.t ->
  init:'a array ->
  rng:Prng.t ->
  unit ->
  'a t
(** Requires [protocol.deterministic]; raises [Invalid_argument] otherwise.
    States are interned through {!Interner}, keyed by the polymorphic
    [Hashtbl.hash], so the protocol's [equal] must coincide with structural
    equality — true for the plain-data states of the deterministic
    protocols in this repository.

    [classes] lumps the population by topology degree class (default: the
    single class of the complete graph). When the lumping is not exact
    ({!lumping_exact} is [false]) the run is the annealed approximation of
    the fixed graph — callers should surface that.

    [init_probe] forces ([true]) or suppresses ([false]) the eager probe
    of the initially live cells; by default it runs when there are at most
    4096 of them.

    [null_budget] (default [2^21]) caps the cached null outcomes and is
    the scale B of the null-admission rule (see {!pairs_cached}); tests
    shrink it to reach the uncached-null paths at small n. *)

val protocol : 'a t -> 'a Protocol.t

val n : 'a t -> int

val interactions : 'a t -> int
(** Interactions elapsed, including skipped null ones. *)

val parallel_time : 'a t -> float

val events : 'a t -> int
(** Productive interactions executed. *)

val is_silent : 'a t -> bool
(** The configuration is {e provably} silent: every scheduled pair is
    known null. In drained mode this is exactly the old [W = 0] oracle; in
    lazy mode a genuinely silent configuration may not (yet) be provable —
    see {!silent} for the honest three-valued answer. *)

val silent : 'a t -> bool option
(** [Some true] when provably silent; [Some false] when provably not
    (drained mode knows every live pair); [None] when the lazy engine
    cannot decide. This is what {!Exec} exposes as the silence oracle, so
    measurement layers fall back to confirmation windows exactly when
    needed. *)

val drained : 'a t -> bool
(** Every live cell is in the probed set (eager mode); silence is decided
    in O(1) and hits are served from the productive adjacency alone. *)

val lumping_exact : 'a t -> bool
(** The supplied degree-class lumping reproduces the agent chain exactly
    (every class-pair subgraph empty or complete). Always [true] without
    [classes]. *)

val ranking_correct : 'a t -> bool
val leader_correct : 'a t -> bool
val leader_count : 'a t -> int

val ranked_agents : 'a t -> int
(** Agents currently observing some rank (with multiplicity). *)

(** {2 Engine counters}

    Plain O(1) reads over state the engine keeps anyway; the telemetry
    layer scrapes them through [Exec.stats]. *)

val monitor_updates : 'a t -> int
(** Correctness-monitor re-checks (multiset deltas processed). *)

val closure_size : 'a t -> int
(** Distinct (state, degree-class) cells interned so far. Unlike the old
    eager engine this is {e not} the transitive closure: outcome cells
    that never become live are interned but never probed. *)

val pairs_probed : 'a t -> int
(** Ordered cell pairs whose transition has been evaluated (eager sweeps,
    liveness-gain folds and lazy on-demand probes alike). *)

val pairs_cached : 'a t -> int
(** Entries in the explicit pair cache: productive pairs plus the lazy
    null outcomes admitted under the budget B ([null_budget]). Pairs
    within the probed set are implicit and not counted. A lazily probed
    null pair of class pair (a, b) is admitted only when every live pair
    outside the probed set fits in the budget ([X (2L - X) <= B], with L
    live cells of which X are unprobed), or when the pair's share of the
    scheduler [q_ab w_ij / T_ab] is at least [1/B]. So every null is
    admitted while [n² <= B] (n <= 1448 at the default budget), and at
    large n with mostly distinct states none is: [0] on Optimal-silent's
    correct configuration at n = 10⁴. *)

val classes_live : 'a t -> int
(** Cells with a positive count — the live support of the lumped
    configuration. *)

val live_unprobed : 'a t -> int
(** Live cells outside the probed set: [0] while drained, all of
    {!classes_live} when the engine started lazy. The X of the null
    admission rule (see {!pairs_cached}). *)

val productive_pairs : 'a t -> int
(** Ordered cell pairs discovered to have a non-null transition. *)

val productive_weight : 'a t -> int
(** Ordered {e agent} pairs whose interaction is not known to be null —
    the generalization of the old [W] (and exactly [W] in drained mode).
    [0] iff {!is_silent}. *)

val null_skipped : 'a t -> int
(** [interactions - events]: null interactions skipped (or fast-forwarded
    over) rather than simulated. *)

val advance : 'a t -> until:int -> bool
(** [advance t ~until] moves the interaction clock forward by at most one
    possibly-interesting interaction, never past interaction [until].

    - If the configuration is provably silent, the clock jumps to [until]
      and the result is [false] (nothing can ever happen again).
    - Otherwise a geometric skip is sampled. If the next candidate
      interaction lands at or before [until] it is executed; if it lands
      beyond, the clock stops at [until] and the sample is discarded —
      exact in law, because the geometric skip is memoryless. Returns
      [true].

    This is the primitive {!Runner} drives (through {!Exec.of_count_sim}),
    in [run_to_stability] and in [run_while]: calling [advance] in a loop
    with a fixed [until] eventually parks the clock at [until], which is
    how a confirmation window elapses over a silent suffix. *)

(** {2 Configuration access and fault injection}

    Agent identities are a deterministic view over the state multiset:
    agent [i] holds the [r]-th state of its degree class enumerated in
    cell-interning order (the order {!snapshot} uses), where [r] is [i]'s
    rank among the class members. Agents of one class are exchangeable
    under the class-uniform scheduler, so this gives [inject] and
    [corrupt] the same distributional semantics as on {!Sim}. *)

val state : 'a t -> int -> 'a
val snapshot : 'a t -> 'a array

val inject : 'a t -> int -> 'a -> unit
(** [inject t i s] overwrites agent [i]'s state with [s]. Raises
    [Invalid_argument] when [i] is outside [0, n) — same contract as
    [Sim.inject]. *)

val corrupt : 'a t -> rng:Prng.t -> fraction:float -> (Prng.t -> 'a) -> int
(** [corrupt t ~rng ~fraction gen] overwrites [max 1 (round (fraction·n))]
    distinct agents (0 when [fraction = 0.]) with states drawn from [gen].
    Returns the number of corrupted agents. Same contract as
    {!Sim.corrupt}, including [Invalid_argument] on a [fraction] outside
    [0,1]. *)

val audit : 'a t -> unit
(** Recounts, for each degree class, the slots of its probed and its
    unprobed agent tree that hold other than exactly one agent, from the
    cell counts, and raises [Failure] when a recount differs from the
    count the engine keeps. An agent draw on a tree with no such slot
    takes the slot at the drawn position without a Fenwick descent, so
    a wrong kept count would draw the wrong cell. O(cells); for tests. *)
