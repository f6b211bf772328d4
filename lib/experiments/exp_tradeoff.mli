(** Experiment T1.4: the time/space tradeoff of Sublinear-Time-SSR.

    Sweeping the history depth H at fixed n shows stabilization time
    falling as Θ(H·n^{1/(H+1)}) while the state estimate explodes; sweeping
    n at fixed H recovers the per-H scaling exponents 1/(H+1) of Table 1's
    last row. H = 0 is the direct-detection linear-time variant. *)

val detection_latency :
  protocol:Core.Sublinear.state Engine.Protocol.t ->
  init:Core.Sublinear.state array ->
  rng:Prng.t ->
  horizon:int ->
  float option
(** Parallel time until a hidden name collision is first detected (some
    agent enters the Resetting role) on the agent engine, or [None] when
    nothing is detected within [horizon] interactions. *)

val name : string
val description : string
val run : mode:Exp_common.mode -> seed:int -> jobs:int -> string
