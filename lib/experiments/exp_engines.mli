(** Experiment ENG: the two engine-level optimizations against their
    baselines.

    - {b Kernel table} (EXPERIMENTS.md "Experiment IR"): the same random
      ordered-pair schedule through the interpreted transition and the
      compiled kernel ({!Ir.Kernel}), plus a full agent-engine run of
      each. Optimal-Silent-SSR is the expensive transition the memo table
      pays off on; Silent-n-state-SSR is the negative control, whose
      transition is already cheaper than a table lookup.
    - {b Closure table}: a count-engine run to provable silence
      ({!Engine.Runner.run_while} under a 100·n² interaction bound) with
      eager and with lazy pair probing. Dense Optimal-Silent rows are where lazy
      probing wins; sparse Silent-n-state is the negative control, where
      the eager drain wins. One [eager/lazy wall-clock ratio] verdict line
      per row follows the table.

    Both tables warm each mode up once and then time 5 repeats, the two
    modes in alternation: wall-clock cells are median repeats, and
    speedups and verdicts read the median per-repeat ratio, shown with
    its min–max.

    Sizes and seeds are fixed (mode, seed and jobs are ignored), so every
    column except the wall-clock ones is identical across runs. *)

val name : string
val description : string
val run : mode:Exp_common.mode -> seed:int -> jobs:int -> string
