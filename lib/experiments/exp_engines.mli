(** Experiment ENG: the two engine-level optimizations against their
    baselines.

    - {b Kernel table} (EXPERIMENTS.md "Experiment IR"): the same random
      ordered-pair schedule through the interpreted transition and the
      compiled kernel ({!Ir.Kernel}), plus a full agent-engine run of
      each. Optimal-Silent-SSR is the expensive transition the memo table
      pays off on; Silent-n-state-SSR is the negative control, whose
      transition is already cheaper than a table lookup.
    - {b Closure table}: {!Engine.Count_sim.run_to_silence} with eager
      and with lazy pair probing. Dense Optimal-Silent rows are where lazy
      probing wins; sparse Silent-n-state is the negative control, where
      the eager drain wins. One [eager/lazy wall-clock ratio] verdict line
      per row follows the table.

    Sizes and seeds are fixed (mode, seed and jobs are ignored), so every
    column except the wall-clock ones is identical across runs. *)

val name : string
val description : string
val run : mode:Exp_common.mode -> seed:int -> jobs:int -> string
