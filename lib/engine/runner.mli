(** Convergence and stabilization measurement policies.

    The paper measures {e stabilization}: the time after which every
    reachable configuration stays correct. A simulation cannot enumerate
    reachable configurations, but for the protocols in this paper
    convergence and stabilization coincide (footnote 2 of the paper), so the
    runner measures the last interaction at which the execution {e entered}
    correctness and then keeps simulating for a confirmation window,
    restarting the clock if correctness is ever lost. An execution that ends
    its confirmation window unscathed is reported as converged at the entry
    point, not at the end of the window.

    The runner is engine-polymorphic: it drives any {!Exec.t}. On the
    count-based engine it additionally uses the exact-silence oracle
    ({!Exec.silent}): a silent configuration can never change again, so
    its correctness status is final and the confirmation window is skipped
    (W = 0 — the window would pass vacuously). The reported entry point is
    identical either way; only wasted simulation is avoided. Disable with
    [~silence_oracle:false] to force confirmation-window semantics (the
    differential tests do, to check the two agree).

    Progress reporting goes through the {!Instrument} event stream: the
    runner emits [Correct_entered] / [Correct_lost] on the executor, and
    subscribers attached with {!Exec.on} also see the executor's own
    [Step] / [Silence] / [Fault] events. This replaces the [?on_step]
    callback of earlier versions. *)

type task = Ranking | Leader

type outcome = {
  converged : bool;
      (** [true] iff correctness held for the whole confirmation window, or
          the executor proved silence while correct *)
  convergence_interactions : int;
      (** when [converged]: interaction index of the final entry into
          correctness (0 when the initial configuration is already
          correct). When not [converged]: the pending unconfirmed entry if
          the run ended correct mid-window, else [total_interactions] —
          never a fabricated 0, so censored-observation analyses stay
          conservative. *)
  convergence_time : float;  (** [convergence_interactions / n] *)
  total_interactions : int;
      (** interaction-clock reading at the end of the run (on the count
          engine this includes skipped null interactions) *)
  violations : int;
      (** number of times a previously-correct execution became incorrect
          again (counts adversarial recoveries and protocol re-resets) *)
}

val default_confirm : n:int -> int
(** Confirmation window: [max (8n, 4·n·⌈log₂ n⌉)] interactions — several
    epidemic times, enough for any pending reset wave to surface. *)

val default_horizon : n:int -> expected_time:float -> int
(** Interaction budget: [20 × expected_time × n + confirm], clamped to at
    least [1000·n] and saturating at [max_int]; generous relative to the
    predicted scaling so that WHP tails fit. *)

val run_to_stability :
  ?silence_oracle:bool ->
  task:task ->
  max_interactions:int ->
  confirm_interactions:int ->
  'a Exec.t ->
  outcome
(** Advances the executor until correctness has held for
    [confirm_interactions] consecutive interactions, the executor proves
    silence ([silence_oracle], default [true]), or [max_interactions]
    total elapse. *)

val run_while : 'a Exec.t -> max_interactions:int -> (unit -> bool) -> unit
(** [run_while exec ~max_interactions continue] advances the executor
    with {!Exec.advance} [~until:max_interactions] while the clock is
    below [max_interactions] and [continue ()] holds, and returns early
    once the executor proves silence. [continue] is read before each
    advance, and only while the clock is below the bound. The count
    engine's clock never passes the bound. Every bounded run that is not
    a run to stability goes through this. *)

val is_correct : task:task -> 'a Exec.t -> bool
