let pp_trace fmt trace =
  match trace with
  | [] -> Format.pp_print_string fmt "no draws"
  | _ ->
      Format.fprintf fmt "draws %s"
        (String.concat ";" (List.map (fun (c, b) -> Printf.sprintf "%d/%d" c b) trace))

type row = {
  outcomes : int;
  escapes : string list;
  escape_count : int;
  first_escape : string option;  (* "(a, b)" of the row's first escaping pair *)
  violations : string list;
  violation_count : int;
  table : ((int * int) * float) list array option;  (* per responder; meaningless rows with escapes *)
}

(* The probability of one coin outcome: each draw picks one of [bound]
   choices uniformly. *)
let probability trace = List.fold_left (fun p (_, bound) -> p /. float_of_int bound) 1.0 trace

let sum_by_key weighted =
  List.stable_sort (fun (x, _) (y, _) -> compare x y) weighted
  |> List.fold_left
       (fun acc (key, p) ->
         match acc with
         | (key', q) :: rest when key' = key -> (key, q +. p) :: rest
         | _ -> (key, p) :: acc)
       []
  |> List.rev

let scan_row (e : _ Engine.Enumerable.t) space ~keep_tables i =
  let p = e.Engine.Enumerable.protocol in
  let s = Statespace.size space in
  let a = Statespace.state space i in
  let outcomes = ref 0 in
  let escapes = ref [] and escape_count = ref 0 in
  let first_escape = ref None in
  let violations = ref [] and violation_count = ref 0 in
  let table = if keep_tables then Some (Array.make s []) else None in
  let cap = Report.max_findings in
  let record count findings msg = begin
    incr count;
    if List.length !findings < cap then findings := msg () :: !findings
  end in
  for j = 0 to s - 1 do
    let b = Statespace.state space j in
    let outs =
      Coins.enumerate ~max_draws:e.Engine.Enumerable.max_draws (fun rng ->
          p.Engine.Protocol.transition rng (Statespace.state space i) b)
    in
    if p.Engine.Protocol.deterministic then begin
      match outs with
      | [ { Coins.trace = []; _ } ] -> ()
      | _ ->
          record escape_count escapes (fun () ->
              Format.asprintf "(%a, %a): protocol claims deterministic but drew randomness"
                p.Engine.Protocol.pp a p.Engine.Protocol.pp b)
    end;
    let indexed = ref [] in
    List.iter
      (fun { Coins.value = a', b'; trace } ->
        incr outcomes;
        let side tag out =
          let idx = Statespace.index space out in
          if idx < 0 then begin
            if !first_escape = None then
              first_escape :=
                Some (Format.asprintf "(%a, %a)" p.Engine.Protocol.pp a p.Engine.Protocol.pp b);
            record escape_count escapes (fun () ->
                Format.asprintf "(%a, %a) -%s-> %s %a: escapes the declared space (%a)"
                  p.Engine.Protocol.pp a p.Engine.Protocol.pp b
                  (Format.asprintf "%a" pp_trace trace)
                  tag p.Engine.Protocol.pp out p.Engine.Protocol.pp out)
          end;
          List.iter
            (fun inv ->
              if not (inv.Engine.Enumerable.holds out) then
                record violation_count violations (fun () ->
                    Format.asprintf "invariant %S broken by (%a, %a) -> %s %a (%a)"
                      inv.Engine.Enumerable.iname p.Engine.Protocol.pp a p.Engine.Protocol.pp b
                      tag p.Engine.Protocol.pp out pp_trace trace))
            e.Engine.Enumerable.invariants;
          idx
        in
        let ia = side "initiator" a' in
        let ib = side "responder" b' in
        if ia >= 0 && ib >= 0 then indexed := ((ia, ib), probability trace) :: !indexed)
      outs;
    Option.iter (fun t -> t.(j) <- sum_by_key (List.rev !indexed)) table
  done;
  {
    outcomes = !outcomes;
    escapes = List.rev !escapes;
    escape_count = !escape_count;
    first_escape = !first_escape;
    violations = List.rev !violations;
    violation_count = !violation_count;
    table;
  }

type 'a t = {
  closure : Report.stage;
  lint : Report.stage;
  tables : ((int * int) * float) list array array option;
  escape_pair : string option;
  outcomes : int;
}

let cap_concat lists = List.filteri (fun i _ -> i < Report.max_findings) (List.concat lists)

let scan ~pool ~keep_tables (e : _ Engine.Enumerable.t) space =
  let s = Statespace.size space in
  (* Declared states must satisfy the invariants themselves: a transition
     output equal to a declared state is otherwise vacuously fine. *)
  let base_violations =
    List.concat_map
      (fun inv ->
        List.filter_map
          (fun st ->
            if inv.Engine.Enumerable.holds st then None
            else
              Some
                (Format.asprintf "invariant %S broken by declared state %a"
                   inv.Engine.Enumerable.iname e.Engine.Enumerable.protocol.Engine.Protocol.pp st))
          e.Engine.Enumerable.states)
      e.Engine.Enumerable.invariants
  in
  let rows = Engine.Pool.init pool s (scan_row e space ~keep_tables) in
  let rows = Array.to_list rows in
  let outcomes = List.fold_left (fun acc (r : row) -> acc + r.outcomes) 0 rows in
  let escape_count = List.fold_left (fun acc r -> acc + r.escape_count) 0 rows in
  let violation_count =
    List.length base_violations + List.fold_left (fun acc r -> acc + r.violation_count) 0 rows
  in
  let closure =
    Report.finish
      ~metrics:
        [ ("pairs", string_of_int (s * s)); ("outcomes", string_of_int outcomes) ]
      ~findings:(cap_concat (List.map (fun r -> r.escapes) rows))
      ~total:escape_count "closure"
  in
  let lint =
    Report.finish
      ~metrics:[ ("invariants", string_of_int (List.length e.Engine.Enumerable.invariants)) ]
      ~findings:(cap_concat (base_violations :: List.map (fun r -> r.violations) rows))
      ~total:violation_count "invariant-lint"
  in
  let escape_pair = List.find_map (fun r -> r.first_escape) rows in
  let tables =
    if keep_tables && escape_count = 0 then
      Some (Array.of_list (List.map (fun r -> Option.get r.table) rows))
    else None
  in
  { closure; lint; tables; escape_pair; outcomes }

let closure_stage t = t.closure
let lint_stage t = t.lint
let tables t = t.tables
let escape_pair t = t.escape_pair
let outcomes (t : _ t) = t.outcomes
