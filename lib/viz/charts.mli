(** Figure builders: telemetry formats in, {!Plot.chart} out.

    Each builder folds one of the existing telemetry formats — decoded
    {!Telemetry.Events} streams, {!Telemetry.Timeline} summaries, a
    {!Telemetry.Metrics} JSON dump — into one of the paper's figures.
    Builders are total: empty or degenerate inputs produce a valid chart
    (with a "no data" face or an explanatory note), never an exception,
    because they run over whatever a CI soak or a crashed run left
    behind. Everything is deterministic in the input bytes; golden tests
    hold the rendered SVGs byte for byte. *)

val slope_points :
  ?title:string -> (string * (float * float * float) list) list -> Plot.chart
(** The slope chart from already-aggregated points: one (label, points)
    per series with points [(n, mean, ci95_halfwidth)]. Series with at
    least two distinct sizes get the dashed log-log regression overlay
    and a slope/r² note. [Exp_table1] feeds its measurements here
    directly; {!slope_fit} goes through an event stream. *)

val slope_fit :
  ?title:string -> (Telemetry.Events.run * Engine.Instrument.event) list -> Plot.chart
(** Table-1 style log-log scaling plot. Runs are grouped into series by
    (protocol, engine); each run contributes its final convergence time
    ([last_correct_at]) at its population size, aggregated per n into
    mean ± 95% CI error bars. Series with at least two distinct sizes get
    a dashed least-squares overlay ([Stats.Regression.log_log]) and a
    slope/r² note — the empirical counterpart of the paper's Θ(n²)/Θ(n)
    /Θ(√n) claims. Unconverged runs are skipped. *)

val availability :
  ?title:string -> ?x_label:string -> (string * (float * float) list) list -> Plot.chart
(** Availability-vs-offered-load curves, one series per (label, points)
    with points [(load, availability)]. Log x (loads sweep decades),
    linear y pinned to [0, 1.05]. The caller aggregates availability per
    load point — see {!availability_points} and [Exp_chaos]. *)

val availability_points :
  (float * Telemetry.Timeline.summary list) list -> (string * (float * float) list) list
(** The points of {!availability} from soak events files, one
    [(load, summaries)] per file: each file's runs of one (protocol,
    engine) are one point, their mean availability
    ([Telemetry.Timeline.Tally]) at the file's load. Series come in
    first-appearance order. *)

val recovery_samples : ?title:string -> (string * float list * int) list -> Plot.chart
(** The recovery CDF from already-pooled samples: one (label, recovered
    times, censored count) per series. Series with no recoveries drop to
    a note instead of an empty step. [Exp_chaos] feeds its soak reports
    here; {!recovery_cdf} goes through an event stream. *)

val recovery_cdf :
  ?title:string -> (Telemetry.Events.run * Engine.Instrument.event) list -> Plot.chart
(** Empirical CDF of burst recovery times, one step series per
    (protocol, engine), pooled over the stream's runs. Only bursts that
    broke correctness and recovered contribute; censored bursts are
    reported in the per-series note. *)

val has_spans : Telemetry.Json.t -> bool
(** Whether a parsed metrics dump contains any [span.*] histogram, i.e.
    whether {!phase_profile} would have bars rather than a "no data"
    face. *)

val phase_profile : ?title:string -> Telemetry.Json.t -> Plot.chart
(** Per-phase wall-time profile from a {!Telemetry.Metrics} dump: one
    bar per [span.*] histogram (see {!Telemetry.Span}), sized by total
    seconds, with count × mean notes. The input is the parsed metrics
    JSON ([--metrics FILE], [experiments_main --out-dir]). *)
