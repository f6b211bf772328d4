(** The symbolic transition relation: every ordered code pair of a
    packed IR with the complete set of its output code pairs.

    Static pairs come straight from the memoized table ({!Ir.table_lookup});
    dynamic pairs (and every pair when memoization was skipped over
    budget) are enumerated exactly through the synthetic-coin tree
    ({!Analysis.Coins.enumerate}) on the decoded states. Outputs that
    leave the declared space — closure violations — are recorded as
    escape findings rather than raised, so the certifier can report them
    per instance. *)

type edge = {
  ci : int;
  cj : int;
  outs : (int * int) list;  (** output code pairs, one per coin outcome *)
  dynamic : bool;  (** the transition drew randomness on this pair *)
}

type t = {
  size : int;
  edges : edge array;  (** row-major: edge [(ci, cj)] at [ci * size + cj] *)
  escapes : string list;  (** first {!Analysis.Report.max_findings} diagnostics *)
  escape_count : int;
  static_pairs : int;
  dynamic_pairs : int;
  productive_pairs : int;  (** pairs with an outcome that changes the multiset *)
}

val productive_out : edge -> int * int -> bool
(** Does this outcome change the {e unordered} pair? Outputs equal to the
    inputs as a multiset (including the swap) leave the configuration
    unchanged. *)

val productive : edge -> bool

val of_ir : 'a Ir.t -> t
(** Works on any IR, memoized or not. Never raises on closure
    violations — see [escapes]. *)
