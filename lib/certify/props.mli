(** Declared closure invariants, checked as pairwise-inductive over the
    symbolic transition relation.

    A property that is inductive over every ordered pair interaction —
    every coin outcome included — holds globally for every population
    size [n] and every reachable configuration once established, which
    is exactly the shape of the paper's closure lemmas (leader counts,
    rank uniqueness). The check is sound but incomplete: a true global
    invariant maintained only through multi-agent counting arguments
    (e.g. Optimal-Silent rank uniqueness, which relies on the tree
    structure) is not pairwise-inductive and will be {e refuted} here;
    the catalogue only declares properties that are. *)

type form =
  | Noninc_count of Expr.cond
      (** the number of pair members satisfying the condition never
          increases across any interaction *)
  | Noninc_max of { key : string; guard : Expr.cond }
      (** the maximum of [key] over pair members satisfying [guard]
          never increases (no guarded member = [-infinity]) *)
  | Unique of { key : string; guard : Expr.cond }
      (** no interaction manufactures a duplicate of a guarded [key]:
          when the two inputs do not already collide, the guarded output
          keys form a sub-multiset of the guarded input keys *)

type decl = { pname : string; form : form }

type verdict = Holds | Refuted of string | Inapplicable of string

type result = { decl : decl; verdict : verdict; checked_outcomes : int }

val check : 'a Ir.t -> Trans.t -> decl -> result

val catalogue : key:string -> decl list
(** The declared invariants per registry key (empty for protocols whose
    closure facts are not pairwise-inductive). *)

val form_to_json : form -> Telemetry.Json.t
val form_of_json : Telemetry.Json.t -> (form, string) Stdlib.result
