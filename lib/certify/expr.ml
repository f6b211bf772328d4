type exp = Field of string | Const of int

type cond =
  | True
  | Eq of exp * exp
  | Le of exp * exp
  | Not of cond
  | And of cond * cond
  | Or of cond * cond

exception Unknown_field of string

let field_index ~fields name =
  let rec find i = function
    | [] -> raise (Unknown_field name)
    | f :: rest -> if String.equal f name then i else find (i + 1) rest
  in
  find 0 fields

let compile_exp ~fields = function
  | Const k -> fun _vec -> k
  | Field name ->
      let i = field_index ~fields name in
      fun vec -> vec.(i)

let rec compile ~fields = function
  | True -> fun _vec -> true
  | Eq (a, b) ->
      let ea = compile_exp ~fields a and eb = compile_exp ~fields b in
      fun vec -> ea vec = eb vec
  | Le (a, b) ->
      let ea = compile_exp ~fields a and eb = compile_exp ~fields b in
      fun vec -> ea vec <= eb vec
  | Not c ->
      let e = compile ~fields c in
      fun vec -> not (e vec)
  | And (a, b) ->
      let ea = compile ~fields a and eb = compile ~fields b in
      fun vec -> ea vec && eb vec
  | Or (a, b) ->
      let ea = compile ~fields a and eb = compile ~fields b in
      fun vec -> ea vec || eb vec

let exp_to_json e =
  let open Telemetry.Json in
  match e with
  | Field name -> List [ String "field"; String name ]
  | Const k -> List [ String "const"; Int k ]

let rec cond_to_json c =
  let open Telemetry.Json in
  match c with
  | True -> List [ String "true" ]
  | Eq (a, b) -> List [ String "eq"; exp_to_json a; exp_to_json b ]
  | Le (a, b) -> List [ String "le"; exp_to_json a; exp_to_json b ]
  | Not c -> List [ String "not"; cond_to_json c ]
  | And (a, b) -> List [ String "and"; cond_to_json a; cond_to_json b ]
  | Or (a, b) -> List [ String "or"; cond_to_json a; cond_to_json b ]

let exp_of_json j =
  let open Telemetry.Json in
  match j with
  | List [ String "field"; String name ] -> Ok (Field name)
  | List [ String "const"; k ] -> (
      match to_int k with
      | Some k -> Ok (Const k)
      | None -> Error "expr: const needs an int")
  | _ -> Error "expr: expected [\"field\", name] or [\"const\", int]"

let rec cond_of_json j =
  let open Telemetry.Json in
  let ( let* ) = Result.bind in
  match j with
  | List [ String "true" ] -> Ok True
  | List [ String "eq"; a; b ] ->
      let* a = exp_of_json a in
      let* b = exp_of_json b in
      Ok (Eq (a, b))
  | List [ String "le"; a; b ] ->
      let* a = exp_of_json a in
      let* b = exp_of_json b in
      Ok (Le (a, b))
  | List [ String "not"; c ] ->
      let* c = cond_of_json c in
      Ok (Not c)
  | List [ String "and"; a; b ] ->
      let* a = cond_of_json a in
      let* b = cond_of_json b in
      Ok (And (a, b))
  | List [ String "or"; a; b ] ->
      let* a = cond_of_json a in
      let* b = cond_of_json b in
      Ok (Or (a, b))
  | _ -> Error "expr: unknown condition form"

let equal_cond (a : cond) (b : cond) = a = b
