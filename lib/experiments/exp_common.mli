(** Shared machinery for the paper-reproduction experiments.

    Each experiment module ([Exp_table1], [Exp_silent_lb], …) measures one
    table, figure or claim of the paper and renders paper-shaped text
    tables. This module provides the trial runner (seeded, parallel over a
    domain pool, with convergence confirmation and optional silence
    checking) and the sweep helpers. *)

type mode = Quick | Full
(** [Quick] keeps every experiment under roughly a minute (the
    default [experiments_main] run); [Full] uses larger populations and more trials
    (used to regenerate EXPERIMENTS.md). *)

type measurement = {
  label : string;
  n : int;
  times : float array;  (** convergence parallel times of converged trials *)
  events : int array;
      (** state-changing interactions of converged trials, aligned with
          [times]; on the agent engine every interaction counts (nulls are
          not detected there) *)
  failures : int;  (** trials that missed the interaction horizon *)
  violations : int;  (** total correctness losses after first entry *)
  silent_checked : int;  (** converged trials whose final config was checked *)
  silent_ok : int;  (** …of which were silent *)
}

val run_trials :
  ?jobs:int -> ?pool:Engine.Pool.t -> trials:int -> seed:int -> (Prng.t -> 'a) -> 'a array
(** [run_trials ~jobs ~trials ~seed body] runs [body] once per trial on a
    domain pool of [jobs] workers (default {!Engine.Pool.default_jobs}; an
    existing [pool] can be supplied instead) and returns the results in
    trial order. Child generators are pre-split from [seed] {e before}
    dispatch — one per trial index — so the result array is bit-for-bit
    identical for every [jobs] value. [body] must draw randomness only
    from its argument.

    When an ambient metrics registry is installed
    ([Telemetry.Metrics.install], as [experiments_main --out-dir] does),
    every trial observes its wall time into the ["trial_wall_s"] histogram;
    with none installed the overhead is one atomic read per trial. *)

val measure :
  label:string ->
  protocol:'a Engine.Protocol.t ->
  init:(Prng.t -> 'a array) ->
  task:Engine.Runner.task ->
  expected_time:float ->
  ?engine:Engine.Exec.kind ->
  ?check_silence:bool ->
  ?jobs:int ->
  ?pool:Engine.Pool.t ->
  trials:int ->
  seed:int ->
  unit ->
  measurement
(** Runs [trials] independent simulations (child generators split from
    [seed], one per trial, executed via {!run_trials}), each until
    stability or until the horizon
    [Engine.Runner.default_horizon ~n ~expected_time]. [engine] picks the
    executor (default [Agent]; [Count] requires a deterministic protocol
    and exploits the exact-silence oracle, reaching populations the agent
    engine cannot). When [check_silence] (default: the protocol's
    [deterministic] flag) the final configuration of each converged trial
    is tested for silence — exactly via the oracle on the count engine, by
    configuration scan on the agent engine. The measurement is identical
    for every [jobs] value (but differs between engines: they follow
    different random trajectories, equal only in distribution). With an
    ambient metrics registry installed, each trial additionally folds its
    engine counters ([Engine.Exec.stats], prefixed ["engine."]) into the
    registry. *)

val summary : measurement -> Stats.Summary.t
(** Summary of the convergence times; raises if no trial converged. *)

val mean_time : measurement -> float

val scaling_fit : (int * measurement) list -> Stats.Regression.fit
(** Log-log fit of mean convergence time against [n]. *)

val semilog_fit : (int * measurement) list -> Stats.Regression.fit
(** Fit of mean time against [ln n] (for Θ(log n) claims). *)

val time_row : measurement -> string list
(** Table cells: n, trials, mean, ±95% CI, median, p95, max, failures,
    violations (correctness losses after first entry, summed over
    trials — convergence ≠ stabilization shows up here). *)

val time_header : string list

val trials_of_mode : mode -> base:int -> int
(** [Full] keeps [base] trials, [Quick] divides by 3 (min 5). *)
