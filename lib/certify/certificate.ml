let schema = "ssr.certificate/v1"

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

let string_of_verdict = function
  | Certified -> "certified"
  | Partial -> "partial"
  | Failed -> "failed"

let verdict_of_string = function
  | "certified" -> Ok Certified
  | "partial" -> Ok Partial
  | "failed" -> Ok Failed
  | other -> Error (Printf.sprintf "certificate: unknown verdict %S" other)

let string_of_prop_verdict = function
  | Holds -> "holds"
  | Refuted -> "refuted"
  | Inapplicable -> "inapplicable"

let prop_verdict_of_string = function
  | "holds" -> Ok Holds
  | "refuted" -> Ok Refuted
  | "inapplicable" -> Ok Inapplicable
  | other -> Error (Printf.sprintf "certificate: unknown prop verdict %S" other)

let string_of_cross_verdict = function Agree -> "agree" | Conflict -> "conflict" | Na -> "n/a"

let cross_verdict_of_string = function
  | "agree" -> Ok Agree
  | "conflict" -> Ok Conflict
  | "n/a" -> Ok Na
  | other -> Error (Printf.sprintf "certificate: unknown cross verdict %S" other)

let equal (a : t) (b : t) = a = b

open Telemetry.Json

let opt_string = function None -> Null | Some s -> String s
let opt_bool = function None -> Null | Some b -> Bool b

let field_to_json f =
  Obj
    [
      ("name", String f.fname);
      ("declared", Domain.to_json f.declared);
      ("outputs", Domain.to_json f.outputs);
      ("eventual", Domain.to_json f.eventual);
    ]

let prop_to_json p =
  Obj
    [
      ("name", String p.pname);
      ("form", Props.form_to_json p.form);
      ("verdict", String (string_of_prop_verdict p.verdict));
      ("detail", opt_string p.detail);
      ("outcomes", Int p.outcomes);
    ]

let ranking_to_json = function
  | Found atoms -> Obj [ ("status", String "found"); ("atoms", Ranking.atoms_to_json atoms) ]
  | Not_found reason -> Obj [ ("status", String "not-found"); ("reason", String reason) ]
  | Skipped reason -> Obj [ ("status", String "skipped"); ("reason", String reason) ]

let cross_to_json c =
  Obj
    [
      ("check", String c.cname);
      ("verdict", String (string_of_cross_verdict c.cverdict));
      ("detail", String c.cdetail);
    ]

let to_json t =
  Obj
    [
      ("schema", String schema);
      ("key", String t.key);
      ("protocol", String t.protocol);
      ("n", Int t.n);
      ("expectation", String t.expectation);
      ("states", Int t.states);
      ("synthesized", opt_string t.synthesized);
      ("exact", opt_bool t.exact);
      ("static_pairs", Int t.static_pairs);
      ("dynamic_pairs", Int t.dynamic_pairs);
      ("escapes", Int t.escape_count);
      ("fields", List (List.map field_to_json t.fields));
      ("range_sound", Bool t.range_sound);
      ("transient_states", Int t.transient_states);
      ("eventual_core", Int t.core_states);
      ("narrowing_rounds", Int t.narrowing_rounds);
      ("eventually_silent", Bool t.eventually_silent);
      ("props", List (List.map prop_to_json t.props));
      ("ranking", ranking_to_json t.ranking);
      ("cross_checks", List (List.map cross_to_json t.cross_checks));
      ("verdict", String (string_of_verdict t.verdict));
    ]

let to_string t = to_string (to_json t)

let ( let* ) = Result.bind

let req name conv j =
  match Option.bind (member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "certificate: missing or ill-typed field %S" name)

let req_raw name j =
  match member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "certificate: missing field %S" name)

let opt_string_of name j =
  match member name j with
  | Some Null | None -> Ok None
  | Some (String s) -> Ok (Some s)
  | Some _ -> Error (Printf.sprintf "certificate: field %S must be a string or null" name)

let opt_bool_of name j =
  match member name j with
  | Some Null | None -> Ok None
  | Some (Bool b) -> Ok (Some b)
  | Some _ -> Error (Printf.sprintf "certificate: field %S must be a bool or null" name)

let list_of name conv j =
  let* l = req name to_list j in
  List.fold_left
    (fun acc x ->
      let* acc = acc in
      let* v = conv x in
      Ok (v :: acc))
    (Ok []) l
  |> Result.map List.rev

let field_of_json j =
  let* fname = req "name" to_string_opt j in
  let* declared = Result.bind (req_raw "declared" j) Domain.of_json in
  let* outputs = Result.bind (req_raw "outputs" j) Domain.of_json in
  let* eventual = Result.bind (req_raw "eventual" j) Domain.of_json in
  Ok { fname; declared; outputs; eventual }

let prop_of_json j =
  let* pname = req "name" to_string_opt j in
  let* form = Result.bind (req_raw "form" j) Props.form_of_json in
  let* verdict = Result.bind (req "verdict" to_string_opt j) prop_verdict_of_string in
  let* detail = opt_string_of "detail" j in
  let* outcomes = req "outcomes" to_int j in
  Ok { pname; form; verdict; detail; outcomes }

let ranking_of_json j =
  let* status = req "status" to_string_opt j in
  match status with
  | "found" -> Result.bind (req_raw "atoms" j) Ranking.atoms_of_json |> Result.map (fun a -> Found a)
  | "not-found" ->
      req "reason" to_string_opt j |> Result.map (fun r : ranking_cert -> Not_found r)
  | "skipped" -> req "reason" to_string_opt j |> Result.map (fun r -> Skipped r)
  | other -> Error (Printf.sprintf "certificate: unknown ranking status %S" other)

let cross_of_json j =
  let* cname = req "check" to_string_opt j in
  let* cverdict = Result.bind (req "verdict" to_string_opt j) cross_verdict_of_string in
  let* cdetail = req "detail" to_string_opt j in
  Ok { cname; cverdict; cdetail }

let of_json j =
  let* s = req "schema" to_string_opt j in
  if not (String.equal s schema) then
    Error (Printf.sprintf "certificate: schema %S, expected %S" s schema)
  else
    let* key = req "key" to_string_opt j in
    let* protocol = req "protocol" to_string_opt j in
    let* n = req "n" to_int j in
    let* expectation = req "expectation" to_string_opt j in
    let* states = req "states" to_int j in
    let* synthesized = opt_string_of "synthesized" j in
    let* exact = opt_bool_of "exact" j in
    let* static_pairs = req "static_pairs" to_int j in
    let* dynamic_pairs = req "dynamic_pairs" to_int j in
    let* escape_count = req "escapes" to_int j in
    let* fields = list_of "fields" field_of_json j in
    let* range_sound = req "range_sound" to_bool j in
    let* transient_states = req "transient_states" to_int j in
    let* core_states = req "eventual_core" to_int j in
    let* narrowing_rounds = req "narrowing_rounds" to_int j in
    let* eventually_silent = req "eventually_silent" to_bool j in
    let* props = list_of "props" prop_of_json j in
    let* ranking = Result.bind (req_raw "ranking" j) ranking_of_json in
    let* cross_checks = list_of "cross_checks" cross_of_json j in
    let* verdict = Result.bind (req "verdict" to_string_opt j) verdict_of_string in
    Ok
      {
        key;
        protocol;
        n;
        expectation;
        states;
        synthesized;
        exact;
        static_pairs;
        dynamic_pairs;
        escape_count;
        fields;
        range_sound;
        transient_states;
        core_states;
        narrowing_rounds;
        eventually_silent;
        props;
        ranking;
        cross_checks;
        verdict;
      }

let of_string s = Result.bind (parse s) of_json
