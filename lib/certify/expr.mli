(** Field expressions and conditions over IR field vectors.

    The little language the declared closure invariants ({!Props}) are
    written in: an expression reads one field of a state's packed field
    vector or is a constant, a condition combines comparisons with
    boolean connectives. Conditions compile — field names resolved to
    vector indices once, against {!Ir.field_names} — into closures over
    [int array] field vectors, and serialize to JSON so certificates
    carry the exact predicate that was checked. *)

type exp = Field of string | Const of int

type cond =
  | True
  | Eq of exp * exp
  | Le of exp * exp
  | Not of cond
  | And of cond * cond
  | Or of cond * cond

exception Unknown_field of string
(** Raised by compilation when a [Field] name is not among the IR's
    fields (e.g. a catalogue invariant applied to a synthesized IR). *)

val compile : fields:string list -> cond -> int array -> bool
(** [compile ~fields c] resolves every [Field] name to its index in
    [fields] (raising {!Unknown_field} eagerly) and returns the
    evaluator over field vectors of that arity. *)

val field_index : fields:string list -> string -> int
(** Index of a field name, raising {!Unknown_field}. *)

val cond_to_json : cond -> Telemetry.Json.t
(** S-expression-style arrays: [["eq", ["field", "kind"], ["const", 1]]]. *)

val cond_of_json : Telemetry.Json.t -> (cond, string) result
val equal_cond : cond -> cond -> bool
