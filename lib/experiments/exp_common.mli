(** Shared machinery for the paper-reproduction experiments.

    Each experiment module ([Exp_table1], [Exp_silent_lb], …) measures one
    table, figure or claim of the paper and renders paper-shaped text
    tables. Their trials are seeded and dispatched by
    [Fleet.Run.run_trials]; this module provides the run-to-stability
    measurement (with silence checking) and the sweep helpers. *)

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

val measure :
  label:string ->
  protocol:'a Engine.Protocol.t ->
  init:(Prng.t -> 'a array) ->
  expected_time:float ->
  ?engine:Engine.Exec.kind ->
  ?jobs:int ->
  trials:int ->
  seed:int ->
  unit ->
  measurement
(** Runs [trials] independent simulations through [Fleet.Run.run_trials]
    (on [jobs] domains; without [jobs], in order), each to stability under
    [Fleet.Run.stabilize ~expected_time] — the stopping rule of every run
    to stability, [ssr_sim]'s and the fleet's included. [engine] picks
    the executor (default [Agent]; [Count] requires a deterministic
    protocol and exploits the exact-silence oracle, reaching populations
    the agent engine cannot). For a deterministic protocol the final
    configuration of each converged trial is tested for silence — exactly
    via the oracle on the count engine, by configuration scan on the agent
    engine. The measurement is identical for every [jobs] value (but
    differs between engines: they follow different random trajectories,
    equal only in distribution). With an ambient metrics registry
    installed, each trial additionally folds its engine counters
    ([Engine.Exec.stats], prefixed ["engine."]) into the registry. *)

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
