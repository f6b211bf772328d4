type t =
  | Burst of int
  | Periodic of int
  | Poisson of float
  | Compose of t * t

let burst ~at =
  if at < 0 then invalid_arg "Chaos.Schedule.burst: at must be >= 0";
  Burst at

let periodic ~every =
  if every < 1 then invalid_arg "Chaos.Schedule.periodic: every must be >= 1";
  Periodic every

let poisson ~rate =
  if not (rate > 0.0 && Float.is_finite rate) then
    invalid_arg "Chaos.Schedule.poisson: rate must be finite and > 0";
  Poisson rate

let compose a b = Compose (a, b)

let rec to_string = function
  | Burst at -> Printf.sprintf "burst:%d" at
  | Periodic every -> Printf.sprintf "periodic:%d" every
  | Poisson rate -> Printf.sprintf "poisson:%g" rate
  | Compose (a, b) -> to_string a ^ "+" ^ to_string b

(* A started primitive: the cached earliest pending arrival plus a thunk
   producing the one after it. Arrival sequences are non-decreasing per
   primitive, so a one-element lookahead is a complete cursor. *)
type source = { mutable next : int option; advance : unit -> int option }

type stream = source list

let start sched ~rng ~n =
  if n < 1 then invalid_arg "Chaos.Schedule.start: n must be >= 1";
  let sources = ref [] in
  let rec walk node =
    match node with
    | Compose (a, b) ->
        walk a;
        walk b
    | Burst _ | Periodic _ | Poisson _ ->
        (* Every primitive consumes exactly one split — including the
           deterministic ones — so the seeding of any primitive depends
           only on its left-to-right position, never on its siblings'
           kinds. *)
        let child = Prng.split rng in
        let advance =
          match node with
          | Burst at ->
              let fired = ref false in
              fun () ->
                if !fired then None
                else begin
                  fired := true;
                  Some at
                end
          | Periodic every ->
              let k = ref 0 in
              fun () ->
                incr k;
                Some (!k * every)
          | Poisson rate ->
              (* Exponential inter-arrivals in parallel time, mapped to the
                 interaction clock by ceiling — arrivals are at least one
                 interaction apart from time 0 but may collide with each
                 other, which superposition permits. An arrival past the
                 last representable interaction ends the stream. *)
              let t = ref 0.0 in
              let nf = float_of_int n in
              fun () ->
                let u = Prng.float child in
                t := !t +. (-.log (1.0 -. u) /. rate);
                let at = Float.ceil (!t *. nf) in
                if at < Float.of_int max_int then Some (max 1 (int_of_float at)) else None
          | Compose _ -> assert false
        in
        let s = { next = None; advance } in
        s.next <- advance ();
        sources := s :: !sources
  in
  walk sched;
  List.rev !sources

let peek stream =
  List.fold_left
    (fun acc s ->
      match (s.next, acc) with
      | None, _ -> acc
      | Some a, None -> Some a
      | Some a, Some b -> Some (min a b))
    None stream

let pop stream =
  match peek stream with
  | None -> None
  | Some a ->
      let rec consume = function
        | [] -> assert false
        | s :: rest -> if s.next = Some a then s.next <- s.advance () else consume rest
      in
      consume stream;
      Some a

let arrivals_until sched ~rng ~n ~horizon =
  let stream = start sched ~rng ~n in
  let rec loop acc =
    match peek stream with
    | Some a when a <= horizon ->
        ignore (pop stream : int option);
        loop (a :: acc)
    | Some _ | None -> List.rev acc
  in
  loop []
