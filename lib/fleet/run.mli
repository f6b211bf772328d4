(** The one run path: everything [ssr_sim] and the fleet worker share.

    - {b Catalogue.} The protocols a run can name, each with its
      scenarios, its per-agent fault draw, whether it has a compiled
      kernel, and its horizon scale. Job admission ({!Job}) validates
      against the same table.
    - {b Executor construction.} A {!plan} resolves a protocol, scenario,
      engine, kernel and topology once; every trial builds its executor
      from it through [Ir.Kernel.exec] or [Engine.Exec.make].
    - {b One stopping rule.} {!stabilize}: the task, confirmation window
      and horizon of the runs to stability of [ssr_sim], the fleet and
      most experiments. [Exp_exact] and [Exp_topology] call
      [Engine.Runner.run_to_stability] with horizons of their own
      (1000·n² and 2000·n interactions).
    - {b One trial.} {!stabilize} or [Chaos.Soak.run] over a fresh
      executor, with its events attached to a sink and its engine
      counters published to the ambient metrics registry.
    - {b One seeded batch.} {!run_trials}: per-trial PRNG children
      pre-split from the seed in trial order, run on a domain pool or in
      order on the calling domain. {!batch} runs {!trial} through it, with
      per-trial buffer sinks flushed in trial order and supervision on a
      pool — or, without a pool, fail-fast (the fleet worker's attempt
      semantics).

    {b Entropy.} A batch hands trial [i] the [i]-th [Prng.split_many]
    child of [Prng.create ~seed], which draws both the scenario and the
    run, so a batch is identical for every [jobs] value. A single
    [ssr_sim] run predates batches and keeps its own draws: run
    generator [Prng.create ~seed], scenario generator
    [Prng.create ~seed:(seed + 1000)], no trial tag — so it is {e not} a
    batch of one, and calls {!trial} directly. *)

(** {2 Catalogue} *)

val protocols : string list
(** The catalogue's protocol names: [silent; optimal; sublinear]. Each
    entry holds the protocol at a population [n] (>= 2) and sublinear
    history depth [h] (>= 0), its scenarios, its per-agent fault draw,
    its IR descriptor (or why it has no compiled kernel) and its
    horizon scale. *)

val check :
  protocol:string ->
  n:int ->
  h:int ->
  scenario:string ->
  engine:Engine.Exec.kind ->
  compiled:bool ->
  (unit, string) result
(** Whether the catalogue can run this combination: a known protocol and
    scenario (the error lists the available names), a deterministic
    protocol on the count engine, a compiled kernel when asked for one.
    Builds no executor and compiles nothing. *)

(** {2 Plans} *)

type mode =
  | Stability of { deadline : int option }
      (** run to stability; past [deadline] interactions (when given) an
          unconverged trial raises {!Deadline_exceeded} *)
  | Soak of {
      schedule : Chaos.Schedule.t;
      adversary : Chaos.Adversary.t;
      horizon : int;  (** interactions *)
      sla_budget : int option;  (** interactions; default [Chaos.Soak.default_budget] *)
    }

type plan =
  | Plan : {
      protocol : 's Engine.Protocol.t;
      kind : Engine.Exec.kind;
      kernel : 's Ir.Kernel.t option;
      topology : Engine.Topology.t option;
      gen : Prng.t -> 's array;
      random_state : Prng.t -> 's;
      horizon_scale : float;
      mode : mode;
    }
      -> plan

val plan :
  ?topology:Engine.Topology.t ->
  protocol:string ->
  n:int ->
  h:int ->
  scenario:string ->
  engine:Engine.Exec.kind ->
  compiled:bool ->
  mode ->
  (plan, string) result
(** {!check}, then resolve: look the scenario up and compile the kernel
    when [compiled]. [topology] (default: complete) restricts the
    interaction graph as in [Engine.Exec.make]. *)

(** {2 Trials} *)

exception Deadline_exceeded of { interactions : int; deadline : int }

type outcome = Stable of Engine.Runner.outcome | Soaked of Chaos.Soak.report

val succeeded : outcome -> bool
(** Converged, or (a soak) met its SLA. *)

val stabilize : ?deadline:int -> expected_time:float -> 's Engine.Exec.t -> Engine.Runner.outcome
(** The stopping rule of every run to stability: [Runner.run_to_stability]
    on the [Ranking] task with the [Runner.default_confirm] window and the
    [Runner.default_horizon] for [expected_time] (parallel time), capped
    at [deadline] interactions when given, under the span [advance]. Past
    the [deadline], an unconverged run raises {!Deadline_exceeded}. *)

type hook = { hook : 's. 's Engine.Exec.t -> unit }
(** Runs on each trial's fresh executor before it advances — to subscribe
    an extra event handler, say. *)

type finished = Finished : { exec : 's Engine.Exec.t; outcome : outcome } -> finished

val trial :
  ?hook:hook ->
  ?sink:Telemetry.Sink.t ->
  ?trial:int ->
  seed:int ->
  scenario_rng:Prng.t ->
  rng:Prng.t ->
  plan ->
  finished
(** Draws the initial configuration from [scenario_rng], builds the
    executor on [rng] (span [init_drain]), attaches the events of run
    [(seed, trial)] to [sink], runs [hook], then runs the plan's mode
    ({!stabilize} with the expected time [horizon_scale · n], or a soak
    under the span [soak]) and publishes the engine counters with
    [Telemetry.Metrics.record_exec]. *)

(** {2 Batches} *)

val run_trials : ?jobs:int -> trials:int -> seed:int -> (int -> Prng.t -> 'a) -> 'a array
(** [run_trials ~trials ~seed body] runs [body i child] for every trial
    [i], where [child] is the [i]-th [Prng.split_many] child of
    [Prng.create ~seed], split before anything runs, and returns the
    results in trial order. [body] must draw randomness only from its
    child, so the array is identical for every [jobs] value. Without
    [jobs], the trials run in order on the calling domain and the first
    raise propagates at once; with [jobs], they run on a pool of that many
    domains and the lowest-indexed raise is re-raised once all finish.

    With an ambient metrics registry installed, every trial that returns
    observes its wall time into the ["trial_wall_s"] histogram, and a
    pool adds its per-domain utilization to the
    ["pool.domain<slot>.tasks"] and ["pool.domain<slot>.busy_s"] gauges.
    This is the only place trials are seeded and dispatched: {!batch}, the
    experiments and the tests all go through it. *)

type batch = {
  results : (outcome, Supervise.failure) result array;  (** trial order *)
  buffers : Telemetry.Sink.t array;  (** per-trial events; empty unless [events] *)
}

val batch : ?jobs:int -> ?hook:hook -> events:bool -> seed:int -> trials:int -> plan -> batch
(** {!run_trials} over {!trial}: trial [i] draws both its scenario and its
    run from the [i]-th child. With [jobs], each trial runs under
    {!Supervise.run}: a raising trial becomes an [Error] and its siblings
    still run. Without [jobs], the first raising trial's exception
    propagates at once (the fleet worker's attempt semantics). *)

val write_events : batch -> string -> unit
(** Writes the events of the successful trials to the file, in trial
    order — the same bytes for every [jobs] value. *)
