type field = { fname : string; frange : int }
type table = { out_i : int array; out_j : int array }

exception Escape of string

type 'a t = {
  enumerable : 'a Engine.Enumerable.t;
  space : 'a Analysis.Statespace.t;
  fields : field list;
  getters : ('a -> int) list;
  synthesized : string option;
  packed_codes : int;
  code_of_index : int array;
  index_of_code : int array;
  table : table option;
  static_pairs : int;
  dynamic_pairs : int;
  exact : bool option;
  log : string list;
}

let size t = Analysis.Statespace.size t.space
let name t = t.enumerable.Engine.Enumerable.protocol.Engine.Protocol.name
let logged t msg = { t with log = msg :: t.log }

let pack_with fields getters st =
  List.fold_left2 (fun acc f get -> (acc * f.frange) + get st) 0 fields getters

(* Validate the declared fields against the interned space; [Error reason]
   triggers the synthetic-index fallback. *)
let check_fields (e : _ Engine.Enumerable.t) space fields getters =
  let s = Analysis.Statespace.size space in
  let product =
    List.fold_left
      (fun acc f ->
        match acc with
        | Error _ -> acc
        | Ok p ->
            if f.frange <= 0 then
              Error (Printf.sprintf "field %s has non-positive range %d" f.fname f.frange)
            else if p > max_int / f.frange then Error "field-range product overflows"
            else Ok (p * f.frange))
      (Ok 1) fields
  in
  match product with
  | Error _ as err -> err
  | Ok product ->
      let seen = Hashtbl.create (2 * s) in
      let rec states i =
        if i >= s then Ok product
        else
          let st = Analysis.Statespace.state space i in
          let bad =
            List.find_opt
              (fun (f, get) ->
                let v = get st in
                v < 0 || v >= f.frange)
              (List.combine fields getters)
          in
          match bad with
          | Some (f, get) ->
              Error
                (Format.asprintf "field %s reads %d outside 0..%d on state %a" f.fname
                   (get st) (f.frange - 1) e.Engine.Enumerable.protocol.Engine.Protocol.pp st)
          | None -> (
              let code = pack_with fields getters st in
              match Hashtbl.find_opt seen code with
              | Some prev ->
                  Error
                    (Format.asprintf "fields not injective: states %a and %a share code %d"
                       e.Engine.Enumerable.protocol.Engine.Protocol.pp
                       (Analysis.Statespace.state space prev)
                       e.Engine.Enumerable.protocol.Engine.Protocol.pp st code)
              | None ->
                  Hashtbl.add seen code i;
                  states (i + 1))
      in
      states 0

let of_enumerable (e : _ Engine.Enumerable.t) =
  let space = Analysis.Statespace.of_enumerable e in
  let s = Analysis.Statespace.size space in
  if s = 0 then invalid_arg "Ir.of_enumerable: empty declared state space";
  let declared =
    List.map
      (fun f -> ({ fname = f.Engine.Enumerable.fname; frange = f.Engine.Enumerable.frange }, f.Engine.Enumerable.fget))
      e.Engine.Enumerable.fields
  in
  let synthetic reason =
    let fields = [ { fname = "state-index"; frange = s } ] in
    let getters =
      [
        (fun st ->
          match Analysis.Statespace.index space st with Some i -> i | None -> -1);
      ]
    in
    (fields, getters, Some reason, s)
  in
  let fields, getters, synthesized, packed_codes =
    match declared with
    | [] -> synthetic "no fields declared"
    | _ -> (
        let fields = List.map fst declared and getters = List.map snd declared in
        match check_fields e space fields getters with
        | Ok product -> (fields, getters, None, product)
        | Error reason -> synthetic reason)
  in
  let derive_note =
    match synthesized with
    | None ->
        Printf.sprintf "derive: %d states, %d declared field(s), packed product %d" s
          (List.length fields) packed_codes
    | Some reason -> Printf.sprintf "derive: %d states, synthetic index field (%s)" s reason
  in
  (* Pack every declared state, then renumber the live codes densely in
     ascending packed order: the junk codes of the product space, which
     no declared (hence no reachable) state occupies, get no code. *)
  let packed =
    Array.init s (fun i -> pack_with fields getters (Analysis.Statespace.state space i))
  in
  let index_of_code = Array.init s Fun.id in
  Array.sort (fun i j -> compare packed.(i) packed.(j)) index_of_code;
  let code_of_index = Array.make s 0 in
  Array.iteri (fun code i -> code_of_index.(i) <- code) index_of_code;
  {
    enumerable = e;
    space;
    fields;
    getters;
    synthesized;
    packed_codes;
    code_of_index;
    index_of_code;
    table = None;
    static_pairs = 0;
    dynamic_pairs = 0;
    exact = None;
    log =
      [
        Printf.sprintf "dead-code: eliminated %d of %d codes (live %d)" (packed_codes - s)
          packed_codes s;
        Printf.sprintf "pack: %d field(s) -> %d of %d product codes live" (List.length fields) s
          packed_codes;
        derive_note;
      ];
  }

let encode_opt t st =
  Option.map (fun i -> t.code_of_index.(i)) (Analysis.Statespace.index t.space st)

let encode t st =
  match encode_opt t st with
  | Some c -> c
  | None ->
      raise
        (Escape
           (Format.asprintf "%s: state %a escapes the declared space" (name t)
              t.enumerable.Engine.Enumerable.protocol.Engine.Protocol.pp st))

let decode t code =
  if code < 0 || code >= Array.length t.index_of_code then
    invalid_arg "Ir.decode: code out of range"
  else Analysis.Statespace.state t.space t.index_of_code.(code)

let field_names t = List.map (fun f -> f.fname) t.fields

let field_vec t code =
  let st = decode t code in
  Array.of_list (List.map (fun get -> get st) t.getters)

let table_lookup t ci cj =
  match t.table with
  | None -> None
  | Some { out_i; out_j } ->
      let m = size t in
      if ci < 0 || ci >= m || cj < 0 || cj >= m then
        invalid_arg "Ir.table_lookup: code out of range";
      let cell = (ci * m) + cj in
      let oi = out_i.(cell) in
      if oi < 0 then None else Some (oi, out_j.(cell))

let iter_static t f =
  match t.table with
  | None -> ()
  | Some { out_i; out_j } ->
      let m = size t in
      for ci = 0 to m - 1 do
        for cj = 0 to m - 1 do
          let cell = (ci * m) + cj in
          let oi = out_i.(cell) in
          if oi >= 0 then f ci cj oi out_j.(cell)
        done
      done

let pp fmt t =
  let p = t.enumerable.Engine.Enumerable.protocol in
  let s = size t in
  let lines = ref [] in
  let add format = Printf.ksprintf (fun line -> lines := line :: !lines) format in
  add "ir {";
  add "  protocol   : %s (n = %d)" p.Engine.Protocol.name p.Engine.Protocol.n;
  add "  states     : %d declared" s;
  add "  expectation: %s"
    (Format.asprintf "%a" Engine.Enumerable.pp_expectation
       t.enumerable.Engine.Enumerable.expectation);
  (match t.synthesized with
  | None -> add "  fields     : %d declared" (List.length t.fields)
  | Some reason -> add "  fields     : synthetic (%s)" reason);
  List.iter (fun f -> add "    %s in 0..%d" f.fname (f.frange - 1)) t.fields;
  add "  code space : packed %d, live %d, dead %d" t.packed_codes s (t.packed_codes - s);
  (match t.table with
  | None -> add "  transition : not memoized"
  | Some _ ->
      add "  transition : %d static / %d dynamic pairs; %s" t.static_pairs t.dynamic_pairs
        (match t.exact with
        | Some true -> "exact (bitwise vs interpreter)"
        | Some false -> "quotient (outputs normalized on encode)"
        | None -> "unknown"));
  add "  passes     :";
  List.iter (fun line -> add "    %s" line) (List.rev t.log);
  if s <= 64 then begin
    add "  codes      :";
    for c = 0 to s - 1 do
      add "    %2d = %s" c (Format.asprintf "%a" p.Engine.Protocol.pp (decode t c))
    done
  end;
  add "}";
  Format.fprintf fmt "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
    (List.rev !lines)
