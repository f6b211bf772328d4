(** Fold an events stream into a per-run recovery summary.

    This is the analysis behind [bin/timeline]: given the decoded events
    of a JSONL file (possibly several interleaved runs — a trial batch),
    it reconstructs, per run, the convergence and recovery story the
    paper's time claims are about: when correctness was first entered,
    how often it was lost, how long each burst of injected faults took to
    recover from, and when the configuration went silent.

    A {e fault burst} is a maximal group of [Fault] events with no
    intervening [Correct_entered]: the repeated-corruption experiments
    inject several faults back to back, and recovery is only meaningful
    once the stream re-enters correctness. A burst that is never followed
    by a [Correct_lost] did not break correctness (the protocol absorbed
    it); one that is, recovers at the next [Correct_entered]. *)

type burst = {
  faults : int;  (** [Fault] events in the burst *)
  agents : int;  (** total agents overwritten *)
  first_at : float;  (** parallel time of the first fault *)
  last_at : float;  (** …and of the last *)
  last_interactions : int;  (** interaction clock of the last fault *)
  broke : bool;  (** a [Correct_lost] followed before recovery *)
  recovered_at : float option;
      (** time of the next [Correct_entered]; [None] if the stream ends
          first (only a failure if [broke]) *)
  recovered_interactions : int option;  (** …and its interaction clock *)
}

type summary = {
  run : Events.run;
  events : int;  (** events seen for this run *)
  steps : int;
  first_correct_at : float option;  (** first [Correct_entered] *)
  last_correct_at : float option;  (** last [Correct_entered] (final convergence) *)
  violations : int;  (** [Correct_lost] count *)
  silent_at : float option;  (** first [Silence] of the final silent stretch *)
  end_time : float;
  end_interactions : int;
  correct_interactions : int;
      (** interactions spent inside a correct stretch, integrated exactly
          from the [Correct_entered]/[Correct_lost] landmarks (which are
          never thinned); the numerator of {!availability} *)
  bursts : burst list;  (** chronological *)
}

val fold : (Events.run * Engine.Instrument.event) list -> summary list
(** Groups by run id (summaries in first-appearance order; events of
    different runs may interleave freely). *)

(** {2 One run's accumulator}

    The fold of a single run's stream, fed one event at a time. A driver
    that produces the landmarks itself ([Chaos.Soak]) feeds them here
    directly, without subscribing to the per-interaction stream, and
    reads its burst, recovery and SLA accounting back — so a soak report
    and the timeline of its events file are one computation. *)

type acc

val acc : unit -> acc
val feed : acc -> Engine.Instrument.event -> unit

val close : acc -> interactions:int -> time:float -> unit
(** Moves the end of the stream to [interactions] (and [time]) if it is
    not already past them: a driver that knows where its run ends closes
    the accumulator there, so an open correct stretch is measured to the
    true end rather than to the last event. *)

val bursts : acc -> burst list
(** Chronological; a burst still awaiting its [Correct_entered] comes
    last, with [recovered_at = None]. *)

val violations : acc -> int

val correct_interactions : acc -> int
(** Interactions spent correct up to the end of the stream. *)

(** {2 Incremental folding}

    The live dashboard ([timeline --serve]) feeds events as they are
    tailed from a growing file and snapshots summaries between polls.
    {!fold} is [state]/[push]/[snapshot] run to completion. *)

type state

val state : unit -> state
val push : state -> Events.run * Engine.Instrument.event -> unit

val snapshot : state -> summary list
(** Current summaries, in first-appearance order. Non-destructive: more
    events may be pushed afterwards. A fault burst still awaiting its
    [Correct_entered] appears with [recovered_at = None]. *)

val availability : summary -> float
(** Fraction of the stream's interactions spent correct
    ([correct_interactions / end_interactions]). An empty stream counts
    as 0 unless it converged ([last_correct_at] set). *)

val load : in_channel -> ((Events.run * Engine.Instrument.event) list, string) result
(** Reads a JSONL stream to EOF. Empty lines are skipped; the first
    undecodable {e complete} line fails the whole load with its line
    number. A final line with no terminating newline that fails to decode
    is dropped instead: it is a writer caught mid-append (live tailing) or
    a crashed run's torn last write, not a corrupt file. *)

val recovery_time : burst -> float option
(** [recovered_at - last_at], the time-to-correct the recovery tables
    report. *)

val recovery_interactions : burst -> int option
(** The same span on the interaction clock, exactly. *)

(** {2 Recovery SLAs}

    A recovery budget, checked against every burst that broke
    correctness: a recovery that takes more interactions than the budget
    is a miss, and a broken burst the stream never recovers from
    (censored) also counts against the SLA. The rule is decided once,
    here, on the interaction clock ({!recovery_interactions}): a soak
    ([Chaos.Soak], [ssr_sim --chaos]) judges its bursts with {!judge},
    and an events file's verdict ({!check_sla}, {!pp_summary},
    [bin/timeline]) converts its budget with {!to_interactions} first,
    as a job's [sla] is converted, so both read the same verdict off
    the same bursts. *)

val to_interactions : n:int -> float -> int
(** [to_interactions ~n t]: [t] parallel time units on the interaction
    clock of a population of [n], rounded up to whole interactions; at
    least 1, and [max_int] when the product does not fit an int. *)

type sla = {
  sla_budget : int;  (** interactions *)
  broke : int;  (** bursts that lost correctness *)
  sla_misses : int;  (** recovered over budget *)
  sla_censored : int;  (** broke but never recovered *)
  sla_met : bool;  (** no misses, nothing censored *)
}

val judge : budget:int -> burst list -> sla
(** The verdict of [bursts] against a budget of [budget] interactions. *)

val check_sla : budget:float -> summary -> sla
(** {!judge} with the budget of [budget] parallel time units converted
    by {!to_interactions} at the run's population. Requires [budget > 0]
    (raises [Invalid_argument] otherwise). *)

val pp_summary : ?sla_budget:float -> Format.formatter -> summary -> unit
(** Human-readable block, one per run. With [sla_budget] (parallel time
    units), each recovered burst is annotated against the budget and
    the {!check_sla} verdict line is appended. *)

(** {2 Pooled tally}

    One accounting of many runs' recoveries: [bin/timeline]'s aggregate
    verdict, the soak batch report and the chaos experiment's rows
    ([Chaos.Soak.pool]), the dashboard's aggregate and the recovery and
    availability figures all read it. *)

module Tally : sig
  type t = {
    bursts : int;  (** fault bursts, absorbed ones included *)
    broke : int;  (** bursts that lost correctness *)
    recovered : float list;
        (** {!recovery_time} of every broken burst that recovered: the
            runs in order, each run's chronologically *)
    censored : int;  (** broken bursts never recovered *)
    misses : int;  (** recoveries over budget, in the judged runs *)
    met : int;  (** judged runs whose SLA was met *)
    availability : float;  (** mean over the runs; 0 without runs *)
  }

  val pool : (float * burst list * sla option) list -> t
  (** One entry per run: its availability, its bursts and, for a judged
      run, its SLA verdict. *)

  val of_summaries : ?budget:float -> summary list -> t
  (** {!pool} over summaries, with their {!availability} and, given
      [budget] (parallel time units), their {!check_sla} verdicts. *)
end
