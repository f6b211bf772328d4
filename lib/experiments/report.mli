(** Registry of all experiments; [experiments_main] runs them. *)

type experiment = {
  name : string;
  description : string;
  run : mode:Exp_common.mode -> seed:int -> jobs:int -> string;
      (** [jobs] is the domain-pool width for the experiment's Monte Carlo
          batches; results are identical for every value (see
          [Fleet.Run.run_trials]). *)
}

val all : experiment list
(** Every experiment, in the order of DESIGN.md's experiment index. *)

val find : string -> experiment option
