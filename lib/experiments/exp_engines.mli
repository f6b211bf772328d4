(** Experiment ENG: the two engine-level optimizations against their
    baselines, measured in work rather than time.

    - {b Kernel table} (EXPERIMENTS.md "Experiment IR"): per compiled
      kernel ({!Ir.Kernel}), its states, memo-table cells and static and
      dynamic pairs, and the source transitions it evaluates per
      interaction over one fixed-seed agent-engine run (the interpreter
      evaluates one; a compiled dynamic step evaluates one and adds two
      encodes). Optimal-Silent-SSR at n = 64 is the expensive transition
      the memo table removes; Silent-n-state-SSR is the cheap one;
      Optimal-Silent-SSR at n = 256 is tableless, so compilation removes
      nothing there.
    - {b Closure table}: a count-engine run to provable silence
      ({!Engine.Runner.run_while} under a 100·n² interaction bound) with
      eager and with lazy pair probing. Dense Optimal-Silent rows are where lazy
      probing wins; sparse Silent-n-state is the negative control, where
      the eager drain wins. One [eager/lazy cache-cells ratio] verdict
      line per row follows the table.

    Sizes and seeds are fixed (mode, seed and jobs are ignored) and no
    cell reads a clock, so the report is identical across runs. The
    wall-clock comparison of the two kernels is perfbench's. *)

val name : string
val description : string
val run : mode:Exp_common.mode -> seed:int -> jobs:int -> string
