(** Fault-arrival processes.

    A schedule describes {e when} an adversary strikes, as a point process
    on the interaction clock; what each strike does is an {!Adversary}.
    Three primitive arrival processes cover the experiments:

    - {!burst}: a single arrival at a fixed interaction — the classic
      "recover once" experiment ({!Core.Scenarios}, [Exec.corrupt]) as a
      degenerate schedule;
    - {!periodic}: one arrival every [every] interactions — a metronome
      adversary, useful for differential tests because it is
      engine-independent and consumes no randomness;
    - {!poisson}: arrivals with exponential inter-arrival times at rate
      [rate] faults per {e parallel time unit} (so the attack intensity is
      population-independent; the conversion to interactions multiplies
      by [n]) — the memoryless sustained adversary the availability
      experiments sweep.

    Schedules compose by superposition ({!compose}): the arrivals of the
    union. Determinism: a started stream draws randomness only from
    [Prng.split] children of the generator given to {!start}, one per
    primitive in left-to-right order, so arrivals are bit-identical for a
    given seed regardless of what else the caller's generator is used for
    afterwards. *)

type t

val burst : at:int -> t
(** One arrival at interaction [at] (>= 0). *)

val periodic : every:int -> t
(** Arrivals at interactions [every], [2·every], … Requires [every >= 1]. *)

val poisson : rate:float -> t
(** Poisson arrivals at [rate] faults per parallel time unit
    ([rate · n] faults per [n·(n−1)] ordered-pair draws, in expectation).
    Requires [rate > 0]. *)

val compose : t -> t -> t
(** Superposition: arrivals of both operands, merged. *)

val to_string : t -> string
(** Spec syntax: ["burst:100"], ["periodic:2048"], ["poisson:0.1"],
    composition rendered with [+]. *)

(** {2 Started streams} *)

type stream
(** A schedule instantiated with a generator and a population size:
    a mutable cursor over the (possibly infinite) arrival sequence. *)

val start : t -> rng:Prng.t -> n:int -> stream
(** Instantiate. [n] converts parallel-time rates to the interaction
    clock; requires [n >= 1]. Each primitive of the schedule receives its
    own [Prng.split] child of [rng], taken in left-to-right order. *)

val peek : stream -> int option
(** Interaction index of the earliest pending arrival; [None] when the
    schedule is exhausted (finite schedules exhaust, and a Poisson
    primitive ends at its first arrival past [max_int]). Arrival indices
    are non-decreasing; distinct primitives may collide. *)

val pop : stream -> int option
(** Consume and return the earliest pending arrival. *)

val arrivals_until : t -> rng:Prng.t -> n:int -> horizon:int -> int list
(** All arrivals at interactions [<= horizon], in order — [start] + [pop]
    packaged for tests and offline inspection. *)
