(* In-memory tracing for the traced benchmark run.

   Spans are recorded only from the benchmark's own files, around calls
   into the libraries' public functions; nothing inside lib/ is
   instrumented. A span has a name, a start, an end and the span that
   caused it. Spans stay in memory until [write] dumps them at the end of
   the run, so the only cost paid while the workload runs is two clock
   reads and one allocation per span.

   Per-interaction calls (Exec.advance) are far too many to keep one span
   each. They are timed by [timed_exec] into an accumulator and recorded
   as one aggregate child span per trial, flagged [aggregate], whose
   duration is the summed time and whose [calls] is the call count. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  parent : int;  (** 0 = root *)
  start : float;
  stop : float;
  calls : int;  (** 1 for an ordinary span; the call count of an aggregate *)
  aggregate : bool;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let stack : int list ref = ref []

(* Turns recording on or off; a traced run alternates traced and untraced
   stretches. A span records only if recording was on when it began. *)
let set_enabled on = enabled := on

let current () = match !stack with id :: _ -> id | [] -> 0

let fresh_id () =
  incr next_id;
  !next_id

let span name f =
  if not !enabled then f ()
  else begin
    let id = fresh_id () in
    let parent = current () in
    stack := id :: !stack;
    let start = now () in
    let finish () =
      let stop = now () in
      stack := List.tl !stack;
      spans := { id; name; parent; start; stop; calls = 1; aggregate = false } :: !spans
    in
    match f () with
    | r ->
        finish ();
        r
    | exception e ->
        finish ();
        raise e
  end

(* Records an aggregate child of the current span: [total_s] of summed
   time over [calls] calls, placed at [start] for display only. *)
let aggregate name ~start ~total_s ~calls =
  if !enabled then
    spans :=
      {
        id = fresh_id ();
        name;
        parent = current ();
        start;
        stop = start +. total_s;
        calls;
        aggregate = true;
      }
      :: !spans

type acc = { mutable ns : int64; mutable calls : int }

let acc () = { ns = 0L; calls = 0 }
let acc_s a = Int64.to_float a.ns *. 1e-9

(* The executor with [advance] timed into [a]; every other operation is
   the wrapped executor's own. *)
let timed_exec (type s) (a : acc) (e : s Engine.Exec.t) : s Engine.Exec.t =
  let module E = (val e : Engine.Exec.INSTANCE with type state = s) in
  (module struct
    include E

    let advance ~until =
      let t0 = Monotonic_clock.now () in
      let r = E.advance ~until in
      a.ns <- Int64.add a.ns (Int64.sub (Monotonic_clock.now ()) t0);
      a.calls <- a.calls + 1;
      r
  end)

let all () = List.rev !spans
let duration s = s.stop -. s.start

(* Self time: a span's duration minus the time its direct children cover.
   Children of one parent never overlap (the benchmark is sequential on
   the recording domain), so the covered time is their summed duration. *)
let self_times spans =
  let child_s = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt child_s s.parent) in
      Hashtbl.replace child_s s.parent (prev +. duration s))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_s s.id)))
    spans

(* Self time summed per span name, in first-appearance order. *)
let self_by_name spans =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some (t, c) -> Hashtbl.replace tbl s.name (t +. self, c + s.calls)
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name (self, s.calls))
    (self_times spans);
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let write ~path spans =
  let module J = Telemetry.Json in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity spans in
  let span_json s =
    J.Obj
      [
        ("id", J.Int s.id);
        ("name", J.String s.name);
        ("parent", J.Int s.parent);
        ("start_s", J.Float (s.start -. t0));
        ("end_s", J.Float (s.stop -. t0));
        ("calls", J.Int s.calls);
        ("aggregate", J.Bool s.aggregate);
      ]
  in
  let oc = open_out path in
  List.iter (fun s -> output_string oc (J.to_string (span_json s) ^ "\n")) spans;
  close_out oc
