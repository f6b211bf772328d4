type status = Pass | Fail | Skip

type stage = {
  stage : string;
  status : status;
  metrics : (string * string) list;
  findings : string list;
}

type t = {
  key : string;
  protocol : string;
  n : int;
  expectation : string;
  note : string option;
  stages : stage list;
}

let pass ?(metrics = []) stage = { stage; status = Pass; metrics; findings = [] }

let skip ~reason stage = { stage; status = Skip; metrics = []; findings = [ reason ] }

let max_findings = 10

let finish ?(metrics = []) ~findings ~total stage =
  let findings =
    if total > max_findings then
      findings @ [ Printf.sprintf "... and %d more" (total - max_findings) ]
    else findings
  in
  { stage; status = (if total = 0 then Pass else Fail); metrics; findings }

let status_ok = function Pass | Skip -> true | Fail -> false

let ok t = List.for_all (fun s -> status_ok s.status) t.stages

let all_ok = List.for_all ok

let string_of_status = function Pass -> "pass" | Fail -> "FAIL" | Skip -> "skip"

let pp_stage fmt s =
  Format.fprintf fmt "@[<v 2>%-14s %s" s.stage (string_of_status s.status);
  if s.metrics <> [] then
    Format.fprintf fmt "  (%s)"
      (String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) s.metrics));
  List.iter (fun f -> Format.fprintf fmt "@,- %s" f) s.findings;
  Format.fprintf fmt "@]"

let pp fmt t =
  Format.fprintf fmt "@[<v 2>%s: %s  [n=%d, %s]%s" t.key t.protocol t.n t.expectation
    (match t.note with None -> "" | Some note -> "  -- " ^ note);
  List.iter (fun s -> Format.fprintf fmt "@,%a" pp_stage s) t.stages;
  Format.fprintf fmt "@]"

let pp_summary fmt reports =
  let total = List.length reports in
  let failed = List.filter (fun r -> not (ok r)) reports in
  if failed = [] then Format.fprintf fmt "all %d protocol instances pass@." total
  else
    Format.fprintf fmt "%d/%d protocol instances FAIL: %s@." (List.length failed) total
      (String.concat ", " (List.map (fun r -> Printf.sprintf "%s(n=%d)" r.key r.n) failed))

(* --- JSON ------------------------------------------------------------- *)

module J = Telemetry.Json

let stage_json s =
  J.Obj
    [
      ("stage", J.String s.stage);
      ("status", J.String (string_of_status s.status));
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.String v)) s.metrics));
      ("findings", J.List (List.map (fun f -> J.String f) s.findings));
    ]

let json t =
  J.Obj
    ([
       ("key", J.String t.key);
       ("protocol", J.String t.protocol);
       ("n", J.Int t.n);
       ("expectation", J.String t.expectation);
     ]
    @ (match t.note with None -> [] | Some note -> [ ("note", J.String note) ])
    @ [ ("ok", J.Bool (ok t)); ("stages", J.List (List.map stage_json t.stages)) ])

let to_json t = J.to_string (json t)

let list_to_json reports =
  J.to_string
    (J.Obj [ ("ok", J.Bool (all_ok reports)); ("reports", J.List (List.map json reports)) ])
