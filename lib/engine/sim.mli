(** A steppable population-protocol simulation.

    [Sim] implements the paper's probabilistic scheduler: at every step a
    uniformly random ordered pair of distinct agents interacts. It exposes
    single-step control; runs outside the engine library drive it through
    {!Exec.of_sim} (or {!Exec.make}) and {!Runner}, which interleave
    stepping with measurement, tracing or transient-fault injection (the
    self-stabilization setting: an adversary may corrupt states at any
    time; see [examples/sensor_recovery.ml]).

    Parallel time is the number of interactions divided by [n]. *)

type 'a t

val make : protocol:'a Protocol.t -> init:'a array -> rng:Prng.t -> 'a t
(** [make ~protocol ~init ~rng] starts a simulation from configuration
    [init] (copied; length must equal [protocol.n]) under the paper's
    uniform ordered-pair scheduler. *)

val make_with :
  sampler:(Prng.t -> int) -> protocol:'a Protocol.t -> init:'a array -> rng:Prng.t -> 'a t
(** Like {!make} but with a custom scheduler: [sampler] must return an
    ordered pair of distinct agent indices in [0, n), packed by
    {!Prng.pack_pair} so that a step allocates no tuple for it;
    {!Topology.sampler} provides non-complete interaction graphs. {!make}
    is [make_with] over {!Prng.distinct_pair_packed}. *)

val protocol : 'a t -> 'a Protocol.t
val n : 'a t -> int

val step : 'a t -> unit
(** Execute one interaction. *)

val interactions : 'a t -> int
(** Interactions executed so far. *)

val parallel_time : 'a t -> float
(** [interactions / n]. *)

val ranking_correct : 'a t -> bool
(** Ranks observed are exactly a permutation of [1..n]. *)

val leader_correct : 'a t -> bool
(** Exactly one agent observes as leader. *)

val leader_count : 'a t -> int
val ranked_agents : 'a t -> int

val monitor_updates : 'a t -> int
(** Correctness-monitor re-checks so far (see {!Monitor.updates}). *)

val state : 'a t -> int -> 'a
(** [state sim i] is agent [i]'s current state. *)

val inject : 'a t -> int -> 'a -> unit
(** [inject sim i s] overwrites agent [i]'s state with [s] — a transient
    fault. Correctness monitoring is kept consistent. Raises
    [Invalid_argument] when [i] is outside [0, n) — the same contract as
    [Count_sim.inject], so fault-injection drivers behave identically on
    both engines. *)

val corrupt : 'a t -> rng:Prng.t -> fraction:float -> (Prng.t -> 'a) -> int
(** [corrupt sim ~rng ~fraction gen] injects [gen rng] into a uniformly
    chosen [fraction] of the agents (at least one if [fraction > 0]);
    returns the number of corrupted agents. Raises [Invalid_argument]
    when [fraction] is outside [0,1] (NaN included). *)

val snapshot : 'a t -> 'a array
(** Copy of the current configuration. *)

val last_pair : 'a t -> (int * int) option
(** The (initiator, responder) indices of the most recent interaction. *)
