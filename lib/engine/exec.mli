(** Executor interface: one surface over both simulation engines.

    The repository has two ways to run a protocol: {!Sim}, the agent
    engine, which executes every scheduled interaction; and {!Count_sim},
    the count-based engine, which tracks the configuration as a state
    multiset and jumps between productive interactions. Measurement policy
    ({!Runner}), experiments and the CLI should not care which one is
    underneath. [Exec] packages either engine as a first-class module
    exposing the operations they need:

    - {!advance}: move the interaction clock forward, bounded by [until];
    - observation: {!interactions}, {!events}, {!parallel_time},
      correctness ({!ranking_correct}, {!leader_correct}, {!leader_count},
      {!ranked_agents}), {!snapshot}, {!state};
    - fault injection: {!inject}, {!corrupt};
    - {!silent}: the exact-silence oracle — [Some true] means {e no}
      non-null transition is applicable, ever again, so silent-protocol
      stabilization can be reported exactly instead of waiting out a
      confirmation window. The agent engine cannot observe this in O(1)
      and answers [None], as does the count engine's lazy mode when
      silence is not (yet) provable;
    - {!on}: subscription to the {!Instrument} event stream ([Step],
      [Correct_entered], [Correct_lost], [Silence], [Fault]).

    Construct with {!make} to pick by {!kind} (and topology), or with
    {!of_sim} / {!of_count_sim} to wrap an engine you already hold. *)

module type INSTANCE = sig
  type state

  val protocol : state Protocol.t

  val advance : until:int -> bool
  (** Move the clock forward by at most one state-changing step, never
      past interaction [until]. Returns [false] when the configuration is
      provably silent (nothing will ever change again; the clock has been
      fast-forwarded to [until]); [true] otherwise.

      Agent engine: executes exactly one interaction (productive or null)
      and always returns [true]. Count engine: executes the next
      productive interaction if it lands at or before [until], else parks
      the clock at [until]; exact in law by memorylessness of the
      geometric null-skip. *)

  val interactions : unit -> int
  val events : unit -> int
  (** State-changing interactions executed. On the agent engine this
      equals {!interactions} (null interactions are not detected). *)

  val parallel_time : unit -> float
  val ranking_correct : unit -> bool
  val leader_correct : unit -> bool
  val leader_count : unit -> int
  val ranked_agents : unit -> int

  val silent : unit -> bool option
  (** Exact-silence oracle: [Some b] iff the engine can decide silence in
      O(1); [None] when it cannot ([Sim] always; [Count_sim] in lazy mode
      when silence is not provable — see {!Count_sim.silent}). *)

  val state : int -> state
  val snapshot : unit -> state array

  val inject : int -> state -> unit
  (** Overwrite one agent's state (transient fault). Emits
      {!Instrument.Fault}. *)

  val corrupt : rng:Prng.t -> fraction:float -> (Prng.t -> state) -> int
  (** Corrupt a fraction of the agents; returns how many. Emits
      {!Instrument.Fault}. *)

  val on : (Instrument.event -> unit) -> unit
  (** Subscribe a handler to the event stream. Handlers run synchronously,
      in subscription order, inside {!advance}/{!inject}/{!corrupt}. *)

  val emit : Instrument.event -> unit
  (** Publish an event to the subscribers — used by drivers ({!Runner})
      to put policy-level events ([Correct_entered], [Correct_lost]) on
      the same stream. *)

  val stats : unit -> (string * float) list
  (** Engine-internal counters, scraped by the telemetry layer into its
      metrics registry. Both engines report [interactions], [events] and
      [monitor_updates]; the count engine adds [null_skipped],
      [closure_size] (interned (state, class) cells), [pairs_probed],
      [pairs_cached], [classes_live], [productive_pairs] and
      [productive_weight]. All are O(1) reads of counters the engines
      keep anyway — calling this costs nothing on a hot path and not
      calling it costs nothing at all. *)
end

type 'a t = (module INSTANCE with type state = 'a)

type kind = Agent | Count

val kind_to_string : kind -> string

val of_sim : 'a Sim.t -> 'a t
(** Wrap an agent-engine simulation. The wrapper only observes the
    simulation — stepping the underlying [Sim.t] directly still works but
    bypasses event emission. *)

val of_count_sim : 'a Count_sim.t -> 'a t
(** Wrap a count-based simulation. Same caveat as {!of_sim}. *)

val make :
  ?topology:Topology.t ->
  kind:kind ->
  protocol:'a Protocol.t ->
  init:'a array ->
  rng:Prng.t ->
  unit ->
  'a t
(** Build a fresh engine of the given kind and wrap it — the one place an
    executor is constructed from a protocol. [Count] requires
    [protocol.deterministic] (raises [Invalid_argument] otherwise, like
    {!Count_sim.make}). [topology] restricts the interaction graph
    (default: complete): the agent engine draws its pairs from
    {!Topology.sampler}, the count engine lumps the population by
    {!Topology.degree_classes} (exact on a star, the annealed
    approximation on a ring or a random regular graph; see
    {!Count_sim.make}). *)

(** {2 Plain-function view}

    Unpacking the first-class module at every call site is noisy; these
    wrappers do it once. *)

val protocol : 'a t -> 'a Protocol.t
val n : 'a t -> int
val advance : 'a t -> until:int -> bool
val interactions : 'a t -> int
val events : 'a t -> int
val parallel_time : 'a t -> float
val ranking_correct : 'a t -> bool
val leader_correct : 'a t -> bool
val leader_count : 'a t -> int
val ranked_agents : 'a t -> int
val silent : 'a t -> bool option
val state : 'a t -> int -> 'a
val snapshot : 'a t -> 'a array
val inject : 'a t -> int -> 'a -> unit
val corrupt : 'a t -> rng:Prng.t -> fraction:float -> (Prng.t -> 'a) -> int
val on : 'a t -> (Instrument.event -> unit) -> unit
val emit : 'a t -> Instrument.event -> unit
val stats : 'a t -> (string * float) list
