(** Soak runs: drive an executor under a sustained fault schedule and
    measure steady-state availability.

    [Runner.run_to_stability] measures one recovery; a soak run measures
    what self-stabilization buys under {e continuous} attack, which is the
    regime the Ω(log n) per-recovery lower bound (Sudo & Masuzawa, PODC
    2019) makes interesting: each burst costs at least logarithmic time,
    so there is a fault rate beyond which the system is never correct.
    The runner interleaves {!Schedule} arrivals with [Exec.advance] up to
    a fixed interaction horizon and reports the fraction of the
    interaction clock spent correct, plus per-burst recovery statistics
    and a verdict against a recovery SLA.

    {b Bursts} are [Telemetry.Timeline]'s: the soak keeps no burst,
    recovery or SLA state of its own, but feeds a [Timeline.acc] the
    landmarks it observes — its own [Correct_entered] / [Correct_lost]
    and each strike — closes it at the horizon and reads the report off
    it. A maximal group of faults with no intervening re-entry into
    correctness is one burst; a burst {e breaks} if correctness is lost
    before the next re-entry, {e recovers} at that re-entry (recovery
    measured from the burst's last fault, and judged against the SLA on
    the interaction clock by [Telemetry.Timeline.judge]), is
    {e absorbed} if correctness never broke, and is {e censored} if the
    horizon ends first. The soak also publishes every action on the
    executor's [Instrument] stream ([Fault] from the injection surface,
    the correctness landmarks from its own observation loop), so folding
    the run's events file with [bin/timeline] tells the same story, and
    the telemetry pipeline sees soak runs for free.

    {b Determinism.} The soak draws randomness only from [Prng.split]
    children of [rng] (one for the schedule, one for the adversary), taken
    before the run starts; given a fresh executor and seed the report and
    the event stream are bit-identical — on any [--jobs] value when each
    trial's generator is pre-split, as [Fleet.Run.run_trials] does.

    {b Metrics.} When an ambient [Telemetry.Metrics] registry is
    installed, every run folds its counters into it
    ([chaos.firings], [chaos.faults_applied], [chaos.repins],
    [chaos.bursts], [chaos.recoveries], [chaos.censored],
    [chaos.violations], [chaos.sla_misses]: misses and censored bursts
    together). *)

type report = {
  horizon : int;  (** interaction budget of the run *)
  total_interactions : int;  (** clock actually elapsed (= horizon) *)
  correct_interactions : int;  (** interaction-clock spent correct *)
  availability : float;  (** correct / total *)
  firings : int;  (** schedule arrivals applied *)
  faults_applied : int;  (** agent states overwritten, re-pins included *)
  repins : int;  (** stuck-agent re-injections *)
  bursts : Telemetry.Timeline.burst list;  (** chronological *)
  violations : int;  (** correctness losses *)
  sla : Telemetry.Timeline.sla;  (** [Telemetry.Timeline.judge] of [bursts] *)
}

val default_budget : n:int -> int
(** Default recovery budget: [4 · Runner.default_confirm ~n] interactions
    — a few confirmation windows, so a recovery that would also satisfy
    the stability runner comfortably meets the SLA. *)

val run :
  ?sla_budget:int ->
  schedule:Schedule.t ->
  adversary:Adversary.t ->
  random_state:(Prng.t -> 'a) ->
  rng:Prng.t ->
  horizon:int ->
  'a Engine.Exec.t ->
  report
(** [run ~schedule ~adversary ~random_state ~rng ~horizon exec] soaks
    [exec] for [horizon] interactions (>= 1), judging correctness on the
    [Ranking] task; [sla_budget] (interactions, >= 1) defaults to
    {!default_budget}. Schedule arrivals are interpreted relative to the
    executor's clock at call time. *)

val pool : report list -> Telemetry.Timeline.Tally.t
(** The pooled tally of the soaks: their availabilities, bursts and SLA
    verdicts. *)

val print_report : out_channel -> n:int -> report -> unit
(** The [ssr_sim --chaos] report block of one soak of population [n]:
    horizon, availability, firings, bursts, correctness losses, recovery
    times and the SLA verdict, one [label : value] line each. *)

val print_pooled : out_channel -> n:int -> trials:int -> report list -> unit
(** The same block over the completed soaks of a [trials]-trial batch:
    availability spread, summed counts, pooled recovery times, and how
    many trials met the SLA. *)
