type form =
  | Noninc_count of Expr.cond
  | Noninc_max of { key : string; guard : Expr.cond }
  | Unique of { key : string; guard : Expr.cond }

type decl = { pname : string; form : form }

type verdict = Holds | Refuted of string | Inapplicable of string

type result = { decl : decl; verdict : verdict; checked_outcomes : int }

let pp_pair ir fmt (ci, cj) =
  let p = ir.Ir.enumerable.Engine.Enumerable.protocol in
  Format.fprintf fmt "(%a, %a)" p.Engine.Protocol.pp (Ir.decode ir ci) p.Engine.Protocol.pp
    (Ir.decode ir cj)

(* One inductiveness obligation: inputs (vi, vj) step to outputs (vo, vp)
   in a single coin outcome; return [Some msg] on violation. *)
let violation ~form ~sat ~guarded_key vi vj vo vp =
  match form with
  | Noninc_count _ ->
      let count a b = Bool.to_int (sat a) + Bool.to_int (sat b) in
      if count vo vp > count vi vj then
        Some (Printf.sprintf "count %d -> %d" (count vi vj) (count vo vp))
      else None
  | Noninc_max _ ->
      let keys a b = List.filter_map guarded_key [ a; b ] in
      let maxi = function [] -> None | l -> Some (List.fold_left max min_int l) in
      let m_in = maxi (keys vi vj) and m_out = maxi (keys vo vp) in
      (match (m_in, m_out) with
      | _, None -> None
      | None, Some x -> Some (Printf.sprintf "max -inf -> %d" x)
      | Some a, Some b -> if b > a then Some (Printf.sprintf "max %d -> %d" a b) else None)
  | Unique _ -> (
      match List.filter_map guarded_key [ vi; vj ] with
      | [ a; b ] when a = b -> None (* inputs already collide: vacuous *)
      | kin ->
          let kout = List.filter_map guarded_key [ vo; vp ] in
          let dup = match kout with [ a; b ] -> a = b | _ -> false in
          let fresh = List.exists (fun x -> not (List.mem x kin)) kout in
          if dup || fresh then
            Some
              (Printf.sprintf "guarded keys {%s} -> {%s}"
                 (String.concat "," (List.map string_of_int kin))
                 (String.concat "," (List.map string_of_int kout)))
          else None)

let check ir (trans : Trans.t) decl =
  let fields = Ir.field_names ir in
  match
    match decl.form with
    | Noninc_count c -> `Sat (Expr.compile ~fields c)
    | Noninc_max { key; guard } | Unique { key; guard } ->
        let g = Expr.compile ~fields guard and i = Expr.field_index ~fields key in
        `Guarded (fun v -> if g v then Some v.(i) else None)
  with
  | exception Expr.Unknown_field name ->
      {
        decl;
        verdict =
          Inapplicable
            (Printf.sprintf "field %S not in the IR (%s)" name
               (match ir.Ir.synthesized with
               | Some reason -> "synthesized: " ^ reason
               | None -> String.concat ", " fields));
        checked_outcomes = 0;
      }
  | compiled ->
      let sat, guarded_key =
        match compiled with
        | `Sat f -> (f, fun _ -> None)
        | `Guarded g -> ((fun _ -> false), g)
      in
      let size = trans.Trans.size in
      let vecs = Array.init size (fun c -> Ir.field_vec ir c) in
      let checked = ref 0 in
      let refutation = ref None in
      Array.iter
        (fun e ->
          if !refutation = None then
            List.iter
              (fun (oi, oj) ->
                incr checked;
                if !refutation = None then
                  match
                    violation ~form:decl.form ~sat ~guarded_key vecs.(e.Trans.ci)
                      vecs.(e.Trans.cj) vecs.(oi) vecs.(oj)
                  with
                  | Some msg ->
                      refutation :=
                        Some
                          (Format.asprintf "%a -> %a: %s" (pp_pair ir) (e.Trans.ci, e.Trans.cj)
                             (pp_pair ir) (oi, oj) msg)
                  | None -> ())
              e.Trans.outs)
        trans.Trans.edges;
      let verdict =
        match !refutation with None -> Holds | Some msg -> Refuted msg
      in
      { decl; verdict; checked_outcomes = !checked }

let catalogue ~key =
  match key with
  | "silent_n_state" ->
      [ { pname = "rank-uniqueness"; form = Unique { key = "rank0"; guard = Expr.True } } ]
  | "baseline" ->
      [
        {
          pname = "leader-count-nonincreasing";
          form = Noninc_count (Expr.Eq (Expr.Field "role", Expr.Const 0));
        };
      ]
  | "reset" | "reset_production" ->
      [
        {
          pname = "max-resetcount-nonincreasing";
          form =
            Noninc_max
              { key = "resetcount"; guard = Expr.Eq (Expr.Field "kind", Expr.Const 1) };
        };
      ]
  | _ -> []

let form_to_json f =
  let open Telemetry.Json in
  match f with
  | Noninc_count c -> List [ String "noninc-count"; Expr.cond_to_json c ]
  | Noninc_max { key; guard } ->
      List [ String "noninc-max"; String key; Expr.cond_to_json guard ]
  | Unique { key; guard } -> List [ String "unique"; String key; Expr.cond_to_json guard ]

let form_of_json j =
  let open Telemetry.Json in
  let ( let* ) = Result.bind in
  match j with
  | List [ String "noninc-count"; c ] ->
      let* c = Expr.cond_of_json c in
      Ok (Noninc_count c)
  | List [ String "noninc-max"; String key; g ] ->
      let* guard = Expr.cond_of_json g in
      Ok (Noninc_max { key; guard })
  | List [ String "unique"; String key; g ] ->
      let* guard = Expr.cond_of_json g in
      Ok (Unique { key; guard })
  | _ -> Error "props: unknown form"
