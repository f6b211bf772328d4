(** Exhaustive small-population model checking and exact hitting times.

    For population sizes where the configuration space [C(s + n - 1, n)]
    fits the budget, builds the {e complete} weighted configuration chain
    once: nodes are admissible multisets over the declared states, edges
    are single interactions with every synthetic-coin outcome of every
    applicable ordered state pair, weighted by the probability that the
    uniform scheduler draws the pair and the coins produce the outcome
    (from {!Relation}'s weighted table). It then decides the declared
    stabilization property of {e every} initial configuration at once via
    the support's bottom strongly connected components (iterative
    Tarjan):

    - {e silent-stabilizing}: every bottom SCC is a singleton in which
      no interaction changes any agent's state (hence silent: a swap of
      two distinct states maps the multiset to itself, but is refused)
      satisfying [correct] — so from any
      configuration the protocol reaches, with probability 1 under the
      uniform scheduler, a silent correct configuration and stays there.
      This is the paper's SSR/SSLE guarantee (Theorem 4.6 for
      Optimal-Silent-SSR) verified exactly at small [n];
    - {e stabilizing}: every configuration in every bottom SCC satisfies
      [correct] (states may churn, correctness is permanent);
    - {e loosely-stabilizing}: every bottom SCC contains a [correct]
      configuration (correctness recurs infinitely often).

    Also verifies that the admissible region is transition-closed. The
    pair-outcome table, per-configuration correctness flags and weighted
    successor lists are built in parallel over the {!Engine.Pool}; Tarjan
    runs sequentially. Budget overruns produce a [Skip], not a failure.

    The same enumeration decides silence (the paper's Section 2 notion
    behind Observation 2.2): a configuration is silent when no
    interaction changes any agent's state. The [silence] stage counts
    the silent configurations and certifies {e silent ⇒ correct}: a
    silent incorrect configuration is a permanent failure under every
    expectation. A silent-stabilizing descriptor must also have at least
    one silent configuration; for the loosely-stabilizing protocol the
    [silent = 0] metric is itself the certificate that it is not silent.
    The stage is skipped, not failed, for randomized protocols (silence
    is undefined without a single successor) and over the budget.

    The same chain answers the exact oracle's queries ({!chain}): the
    expected parallel time to reach the {e target}, the correct
    configurations of bottom SCCs (for a silent protocol, the silent
    correct ones), from every configuration. They solve (I − Q)x = 1 by
    sparse Gauss–Seidel sweeps in reverse topological order of the
    components, stopped once the residual ‖1 − (I − Q)x‖∞ is at most
    1e-13·max(1, ‖x‖∞). That bounds the residual, not the error: since
    ‖(I − Q)⁻¹‖∞ is the largest hitting time, the error relative to the
    largest time is at most about 1e-13·max(1, ‖x‖∞) (in interactions),
    so slowly mixing chains with long hitting times get fewer correct
    digits. A solve whose residual is still above the bound after 10000
    sweeps raises [Failure] instead of returning. *)

val gate :
  max_configs:int ->
  'a Engine.Enumerable.t ->
  'a Statespace.t ->
  [ `Run | `Skip of Report.stage * Report.stage ]
(** Decide up front whether the configuration space fits the budget; a
    skip carries the [silence] and [model-check] stages. The driver uses
    this to ask the shared {!Relation} scan to retain its Θ(s²)
    pair-outcome index table only when the check will actually run. *)

val check :
  pool:Engine.Pool.t ->
  relation:'a Relation.t ->
  'a Engine.Enumerable.t ->
  'a Statespace.t ->
  Report.stage * Report.stage
(** The [silence] and [model-check] stages from one chain build against
    an already-scanned relation (must have been scanned with
    [keep_tables:true]; raises [Invalid_argument] otherwise). The silence
    stage is read off the enumeration whenever it ran, even if the
    admissible region is not transition-closed; when an outcome escapes
    the declared space it fails with [model-check]'s finding. *)

val failed : 'a Engine.Enumerable.t -> exn -> Report.stage * Report.stage
(** Both stages when building the chain raised [exn]: each fails with
    the exception, except that a randomized descriptor's silence stays
    skipped. *)

val pp_config : 'a Engine.Protocol.t -> Format.formatter -> 'a array -> unit
(** Multiset rendering, e.g. ["[3 F(timer=2), L(timer=4)]"]. *)

type 'a chain
(** The weighted configuration chain of one descriptor, with the verdict
    {!check} reports and its hitting times (solved on the first query that needs them; do
    not query one chain from two domains at once). *)

val chain : pool:Engine.Pool.t -> 'a Engine.Enumerable.t -> 'a chain
(** Scans the relation and builds the chain over every admissible
    configuration, with no budget: the caller picks [n]. Raises [Failure]
    when an outcome escapes the declared space or the admissible region
    is not closed. *)

val configurations : 'a chain -> int
(** Number of admissible configurations. *)

val absorbing : 'a chain -> int
(** Number of silent configurations: those in which no interaction
    changes any agent's state (a swap of two distinct states counts as a
    change, though the multiset stays the same). The [silence] stage's
    [silent] metric is this count. *)

val all_absorbing_correct : 'a chain -> bool
(** [true] iff every absorbing configuration satisfies [correct] — the
    safety half of silent self-stabilization, checked exhaustively. *)

val expected_time : 'a chain -> 'a array -> float
(** [expected_time c config] is the exact expected {e parallel time}
    (interactions / n) to reach the target from [config]. Raises
    [Invalid_argument] if [config] has the wrong size, an undeclared
    state or is inadmissible, and [Failure] carrying the findings of
    the [model-check] verdict if it failed (some configuration never
    reaches the target). *)

val worst_expected_time : 'a chain -> float * 'a array
(** The maximum over all configurations, with a witness: the first
    configuration in {!Configs.iter} order within relative 1e-9 of the
    maximum, so that exact ties do not depend on rounding. Raises like
    {!expected_time}. *)

val mean_expected_time : 'a chain -> float
(** Average over all admissible configurations (uniform over the
    configuration space). Raises like {!expected_time}. *)
