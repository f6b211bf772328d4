(** Machine-checkable certificates, schema-versioned like Telemetry.

    One JSON document per catalogue instance, carrying every fact the
    symbolic certifier established — field hulls, range soundness, the
    eventual core, inductive invariants, the ranking function — plus the
    cross-checks against the concrete analyzer and the overall verdict:

    - [Certified]: range-sound, no invariant refuted, and convergence
      proven symbolically (ranking found and/or eventually silent);
    - [Partial]: all emitted facts are sound but no convergence claim is
      made (the expectation is not silent, or the proof search failed);
    - [Failed]: a range violation, a refuted declared invariant, or a
      conflict with the concrete analyzer.

    [of_json] is a strict parser for [to_json]'s output, so consumers
    can re-validate certificates without this library's internals. *)

val schema : string
(** ["ssr.certificate/v1"]. *)

type field_cert = Absint.field_hull = {
  fname : string;
  declared : Domain.t;
  outputs : Domain.t;
  eventual : Domain.t;
}

type prop_verdict = Holds | Refuted | Inapplicable

type prop_cert = {
  pname : string;
  form : Props.form;
  verdict : prop_verdict;
  detail : string option;
  outcomes : int;
}

type ranking_cert = Ranking.status =
  | Found of Ranking.atom list
  | Not_found of string
  | Skipped of string

type cross_verdict = Agree | Conflict | Na

type cross = { cname : string; cverdict : cross_verdict; cdetail : string }

type verdict = Certified | Partial | Failed

type t = {
  key : string;
  protocol : string;
  n : int;
  expectation : string;
  states : int;
  synthesized : string option;
  exact : bool option;
  static_pairs : int;
  dynamic_pairs : int;
  escape_count : int;
  fields : field_cert list;
  range_sound : bool;
  transient_states : int;
  core_states : int;
  narrowing_rounds : int;
  eventually_silent : bool;
  props : prop_cert list;
  ranking : ranking_cert;
  cross_checks : cross list;
  verdict : verdict;
}

val to_json : t -> Telemetry.Json.t
val to_string : t -> string
(** Canonical single-line encoding of {!to_json}. *)

val of_json : Telemetry.Json.t -> (t, string) result
val of_string : string -> (t, string) result
val equal : t -> t -> bool
val string_of_verdict : verdict -> string
