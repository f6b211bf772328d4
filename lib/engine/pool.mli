(** Fixed-size domain pool for embarrassingly parallel trial batches.

    A pool owns [jobs - 1] worker domains plus the submitting domain (which
    drains the same queue while it waits), so [jobs] tasks run concurrently.
    Tasks are closures; each batch returns its results {e in submission
    order}, regardless of which domain finished which task first, and an
    exception raised by a task is captured and re-raised in the submitter
    once the whole batch has drained — the pool itself never deadlocks or
    leaks a wedged domain on a failing task.

    {2 Seeding discipline for deterministic parallelism}

    The pool schedules tasks in a nondeterministic interleaving, so any
    randomized task must receive its entire entropy supply {e before}
    dispatch. The convention used throughout this repository
    (see [Fleet.Run.run_trials]) is:

    + derive one root generator from the experiment seed;
    + pre-split one child [Prng.t] per trial index with [Prng.split_many]
      — a purely sequential, deterministic derivation;
    + hand child [i] to trial [i] and let the trial draw only from it.

    Because child [i] depends only on the seed and on [i] — never on the
    execution order — the results of a batch are bit-for-bit identical for
    every [jobs] value (1, 4, [Domain.recommended_domain_count ()], …).
    Never share a [Prng.t] between tasks: the draws would interleave
    nondeterministically and, worse, xoshiro state updates are not atomic. *)

type t
(** A pool of worker domains with a shared work queue. *)

val resolve_jobs : int option -> (int, string) result
(** The parallelism a [--jobs] flag asks for: the flag's value when
    given, otherwise the [REPRO_JOBS] environment variable when set,
    otherwise [Domain.recommended_domain_count ()]. A value below 1 or a
    [REPRO_JOBS] that is not a positive integer is an [Error] carrying
    the usage message; never raises. Every command-line tool resolves
    its jobs here and exits 2 on the error. *)

val default_jobs : unit -> int
(** [resolve_jobs None], raising [Invalid_argument] with the message on
    a malformed [REPRO_JOBS] — the default of library entry points that
    take an optional [jobs]. *)

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains ([jobs >= 1]; raises
    [Invalid_argument] otherwise). [jobs = 1] spawns no domains at all:
    batches run sequentially on the submitting domain, in index order. *)

val jobs : t -> int
(** The parallelism the pool was created with. *)

val run : t -> (unit -> 'a) array -> 'a array
(** [run pool tasks] executes every task (the submitter helps drain the
    queue) and returns their results in index order. If any task raised,
    the exception of the lowest-indexed failing task is re-raised (with
    its backtrace) after {e all} tasks have finished, so the pool remains
    usable. Raises [Invalid_argument] on a pool that was shut down. *)

val submit : t -> (unit -> unit) -> unit
(** [submit pool task] enqueues one detached task and returns immediately
    — the long-lived-service counterpart of {!run}, used by the fleet
    orchestrator to dispatch jobs while its own domain runs the event
    loop. The submitter does not help drain, so the pool must have been
    created with [jobs >= 2] (at least one worker domain); raises
    [Invalid_argument] otherwise, and on a pool that was shut down.
    Completion is the task's own business (signal through shared state);
    {!shutdown} still waits for every submitted task. An exception
    escaping the task is swallowed — wrap the body if failures must be
    observed (see [Fleet.Supervise]). *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** [map pool f xs] is [run pool] over [fun () -> f xs.(i)]. *)

val init : t -> int -> (int -> 'a) -> 'a array
(** [init pool k f] is the parallel [Array.init k f]. *)

type domain_stats = {
  tasks : int;  (** tasks this domain executed *)
  busy_s : float;  (** wall-clock seconds it spent inside tasks *)
}

val stats : t -> domain_stats array
(** Per-domain utilization since the pool was created, indexed by domain
    slot: slot 0 is the submitting domain, slots [1..jobs-1] the workers.
    Updated once per task (not per interaction), so keeping it costs
    nothing measurable; scraped into the telemetry metrics dump to show
    how evenly a trial batch spread. Safe to call while a batch runs
    (a consistent snapshot of completed tasks). *)

val shutdown : t -> unit
(** Signals the workers to exit once the queue is empty and joins them.
    Idempotent. Subsequent [run]/[map]/[init] calls raise. *)

val with_pool : ?jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] on a fresh pool and shuts it down when
    [f] returns or raises. [jobs] defaults to {!default_jobs}[ ()]. *)
