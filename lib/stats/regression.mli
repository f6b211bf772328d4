(** Least-squares fits used to check asymptotic scaling shapes.

    The experiments validate claims like "Silent-n-state-SSR takes Θ(n²)
    time" by fitting [log time = slope · log n + intercept] over a sweep of
    population sizes and comparing the slope against the predicted exponent
    (2 here, 1 for Optimal-Silent-SSR, 1/(H+1) for Sublinear-Time-SSR). *)

type fit = {
  slope : float;
  intercept : float;
  r2 : float;  (** coefficient of determination *)
}

val linear : (float * float) list -> fit
(** [linear pts] is the ordinary least-squares line through [pts].
    Requires at least two points with distinct x values. *)

val log_log : (float * float) list -> fit
(** [log_log pts] fits [ln y = slope · ln x + intercept]; the slope estimates
    the polynomial scaling exponent. All coordinates must be positive. *)

val semilog_x : (float * float) list -> fit
(** [semilog_x pts] fits [y = slope · ln x + intercept]; a good fit with
    positive slope indicates Θ(log n) scaling. *)
