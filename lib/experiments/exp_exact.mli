(** Experiment EX: exhaustive validation at small populations.

    For Silent-n-state-SSR at n ≤ 7 the entire configuration space fits in
    memory, so the Markov chain of the protocol under the uniform scheduler
    is solved {e exactly} ({!Analysis.Model_check.chain}): every
    configuration provably reaches absorption, every absorbing
    configuration is verified to be a correct ranking
    (self-stabilization, model-checked), and the exact expected
    stabilization times calibrate both simulation engines — the measured
    means must match the solved values within sampling error. *)

val name : string
val description : string
val run : mode:Exp_common.mode -> seed:int -> jobs:int -> string
