(** Protocol IR and optimizing kernel compiler — public facade.

    [Ir.t] (= {!Repr.t}) is the protocol intermediate representation,
    [Ir.Passes] the memoization pass, [Ir.Kernel] the compiled result. See
    each submodule's interface for the contracts. *)

include Repr
module Passes = Passes
module Kernel = Kernel
