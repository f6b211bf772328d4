type burst = {
  faults : int;
  agents : int;
  first_at : float;
  last_at : float;
  last_interactions : int;
  broke : bool;
  recovered_at : float option;
  recovered_interactions : int option;
}

type summary = {
  run : Events.run;
  events : int;
  steps : int;
  first_correct_at : float option;
  last_correct_at : float option;
  violations : int;
  silent_at : float option;
  end_time : float;
  end_interactions : int;
  correct_interactions : int;
  bursts : burst list;
}

type acc = {
  mutable a_events : int;
  mutable a_steps : int;
  mutable a_first_correct : float option;
  mutable a_last_correct : float option;
  mutable a_violations : int;
  mutable a_silent : float option;
  mutable a_end_time : float;
  mutable a_end_interactions : int;
  mutable a_correct_since : int option;  (* interaction count at last Correct_entered *)
  mutable a_correct_acc : int;  (* interactions spent correct in closed intervals *)
  mutable a_bursts : burst list;  (* reversed *)
  mutable a_open : burst option;  (* burst awaiting its Correct_entered *)
}

let acc () =
  {
    a_events = 0;
    a_steps = 0;
    a_first_correct = None;
    a_last_correct = None;
    a_violations = 0;
    a_silent = None;
    a_end_time = 0.0;
    a_end_interactions = 0;
    a_correct_since = None;
    a_correct_acc = 0;
    a_bursts = [];
    a_open = None;
  }

let close_burst acc ~time ~interactions =
  match acc.a_open with
  | None -> ()
  | Some b ->
      acc.a_bursts <-
        { b with recovered_at = Some time; recovered_interactions = Some interactions }
        :: acc.a_bursts;
      acc.a_open <- None

let close acc ~interactions ~time =
  acc.a_end_time <- Float.max acc.a_end_time time;
  acc.a_end_interactions <- max acc.a_end_interactions interactions

let feed acc (event : Engine.Instrument.event) =
  acc.a_events <- acc.a_events + 1;
  close acc ~interactions:(Engine.Instrument.interactions event)
    ~time:(Engine.Instrument.time event);
  match event with
  | Engine.Instrument.Step _ -> acc.a_steps <- acc.a_steps + 1
  | Engine.Instrument.Correct_entered { time; interactions; _ } ->
      if acc.a_first_correct = None then acc.a_first_correct <- Some time;
      acc.a_last_correct <- Some time;
      if acc.a_correct_since = None then acc.a_correct_since <- Some interactions;
      close_burst acc ~time ~interactions
  | Engine.Instrument.Correct_lost { interactions; _ } ->
      acc.a_violations <- acc.a_violations + 1;
      (match acc.a_correct_since with
      | Some since ->
          acc.a_correct_acc <- acc.a_correct_acc + (interactions - since);
          acc.a_correct_since <- None
      | None -> ());
      (match acc.a_open with Some b -> acc.a_open <- Some { b with broke = true } | None -> ())
  | Engine.Instrument.Silence { time; _ } -> acc.a_silent <- Some time
  | Engine.Instrument.Fault { agents; time; interactions } -> (
      match acc.a_open with
      | Some b ->
          acc.a_open <-
            Some
              {
                b with
                faults = b.faults + 1;
                agents = b.agents + agents;
                last_at = time;
                last_interactions = interactions;
              }
      | None ->
          acc.a_open <-
            Some
              {
                faults = 1;
                agents;
                first_at = time;
                last_at = time;
                last_interactions = interactions;
                broke = false;
                recovered_at = None;
                recovered_interactions = None;
              })

(* Non-destructive: an open burst already carries [recovered_at = None],
   so appending it unchanged closes it as censored without losing the
   ability to keep feeding (live snapshots). *)
let bursts acc =
  List.rev (match acc.a_open with Some b -> b :: acc.a_bursts | None -> acc.a_bursts)

let violations acc = acc.a_violations

let correct_interactions acc =
  acc.a_correct_acc
  + match acc.a_correct_since with Some since -> acc.a_end_interactions - since | None -> 0

let summary ~run acc =
  {
    run;
    events = acc.a_events;
    steps = acc.a_steps;
    first_correct_at = acc.a_first_correct;
    last_correct_at = acc.a_last_correct;
    violations = acc.a_violations;
    silent_at = acc.a_silent;
    end_time = acc.a_end_time;
    end_interactions = acc.a_end_interactions;
    correct_interactions = correct_interactions acc;
    bursts = bursts acc;
  }

type state = {
  table : (string, Events.run * acc) Hashtbl.t;
  mutable order : string list;  (* run ids, reversed first-appearance order *)
}

let state () = { table = Hashtbl.create 16; order = [] }

let push st ((run : Events.run), event) =
  let acc =
    match Hashtbl.find_opt st.table run.Events.id with
    | Some (_, acc) -> acc
    | None ->
        let acc = acc () in
        Hashtbl.add st.table run.Events.id (run, acc);
        st.order <- run.Events.id :: st.order;
        acc
  in
  feed acc event

let snapshot st =
  List.rev_map
    (fun id ->
      let run, acc = Hashtbl.find st.table id in
      summary ~run acc)
    st.order

let fold events =
  let st = state () in
  List.iter (push st) events;
  snapshot st

let availability s =
  if s.end_interactions = 0 then if s.last_correct_at <> None then 1.0 else 0.0
  else float_of_int s.correct_interactions /. float_of_int s.end_interactions

(* Reads the channel to EOF up front so the final line's termination is
   known: a trailing line without '\n' is a live or crashed writer caught
   mid-append, so if it fails to decode it is dropped rather than failing
   the load. Complete undecodable lines still fail with their number. *)
let load ic =
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec read_all () =
    let k = input ic chunk 0 (Bytes.length chunk) in
    if k > 0 then begin
      Buffer.add_subbytes buf chunk 0 k;
      read_all ()
    end
  in
  read_all ();
  let data = Buffer.contents buf in
  let lines = String.split_on_char '\n' data in
  (* After split, every element but the last was '\n'-terminated; the
     last is "" for a terminated file, or the unterminated tail. *)
  let rec loop lineno acc = function
    | [] -> Ok (List.rev acc)
    | [ last ] ->
        if String.trim last = "" then Ok (List.rev acc)
        else (
          match Events.of_line last with
          | Ok decoded -> Ok (List.rev (decoded :: acc))
          | Error _ -> Ok (List.rev acc) (* truncated final line: tolerate *))
    | line :: rest when String.trim line = "" -> loop (lineno + 1) acc rest
    | line :: rest -> (
        match Events.of_line line with
        | Ok decoded -> loop (lineno + 1) (decoded :: acc) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  loop 1 [] lines

let recovery_time b =
  match b.recovered_at with Some t -> Some (t -. b.last_at) | None -> None

let recovery_interactions b =
  match b.recovered_interactions with Some i -> Some (i - b.last_interactions) | None -> None

(* Saturates rather than wrapping: a budget past the int range allows
   every recovery. *)
let to_interactions ~n t =
  let x = Float.ceil (t *. float_of_int n) in
  if x >= Float.of_int max_int then max_int else max 1 (int_of_float x)

type sla = {
  sla_budget : int;
  broke : int;
  sla_misses : int;
  sla_censored : int;
  sla_met : bool;
}

let over_budget ~budget b =
  match recovery_interactions b with Some dt -> dt > budget | None -> false

let judge ~budget bursts =
  let broke = List.filter (fun (b : burst) -> b.broke) bursts in
  let count p = List.length (List.filter p broke) in
  let misses = count (over_budget ~budget) in
  let censored = count (fun b -> b.recovered_at = None) in
  {
    sla_budget = budget;
    broke = List.length broke;
    sla_misses = misses;
    sla_censored = censored;
    sla_met = misses = 0 && censored = 0;
  }

let check_sla ~budget s =
  if not (budget > 0.0) then invalid_arg "Timeline.check_sla: budget must be > 0";
  judge ~budget:(to_interactions ~n:s.run.Events.n budget) s.bursts

let pp_opt_time fmt = function
  | Some t -> Format.fprintf fmt "t=%.2f" t
  | None -> Format.pp_print_string fmt "never"

let pp_summary ?sla_budget fmt s =
  let r = s.run in
  let sla = Option.map (fun budget -> (budget, check_sla ~budget s)) sla_budget in
  Format.fprintf fmt "run %s (%s engine, protocol %s, n=%d, seed=%d%s)@\n" r.Events.id
    r.Events.engine r.Events.protocol r.Events.n r.Events.seed
    (match r.Events.trial with Some t -> Printf.sprintf ", trial %d" t | None -> "");
  Format.fprintf fmt "  events            : %d (%d steps)@\n" s.events s.steps;
  Format.fprintf fmt "  first correct     : %a@\n" pp_opt_time s.first_correct_at;
  if s.last_correct_at <> s.first_correct_at then
    Format.fprintf fmt "  final convergence : %a@\n" pp_opt_time s.last_correct_at;
  Format.fprintf fmt "  correctness losses: %d@\n" s.violations;
  (match s.silent_at with
  | Some t -> Format.fprintf fmt "  silent            : t=%.2f@\n" t
  | None -> ());
  Format.fprintf fmt "  end of stream     : t=%.2f (interaction %d)@\n" s.end_time
    s.end_interactions;
  if s.violations > 0 || s.bursts <> [] then
    Format.fprintf fmt "  availability      : %.3f (fraction of interactions spent correct)@\n"
      (availability s);
  if s.bursts <> [] then begin
    Format.fprintf fmt "  fault bursts      : %d@\n" (List.length s.bursts);
    List.iteri
      (fun i b ->
        Format.fprintf fmt "    burst %d: %d agent%s in %d fault%s @@ t=%.2f" (i + 1) b.agents
          (if b.agents = 1 then "" else "s")
          b.faults
          (if b.faults = 1 then "" else "s")
          b.last_at;
        (if not b.broke then Format.fprintf fmt " — correctness held"
         else
           match recovery_time b with
           | Some dt ->
               Format.fprintf fmt " — re-correct at t=%.2f (recovery %.2f%s)"
                 (Option.get b.recovered_at) dt
                 (match sla with
                 | Some (_, v) when over_budget ~budget:v.sla_budget b -> ", OVER SLA"
                 | Some _ -> ", within SLA"
                 | None -> "")
           | None -> Format.fprintf fmt " — NOT recovered by end of stream");
        Format.pp_print_newline fmt ())
      s.bursts
  end;
  match sla with
  | None -> ()
  | Some (budget, v) ->
      if v.broke = 0 then
        Format.fprintf fmt "  SLA (budget %.2f) : MET (no burst broke correctness)@\n" budget
      else if v.sla_met then
        Format.fprintf fmt "  SLA (budget %.2f) : MET (%d recover%s within budget)@\n" budget
          v.broke
          (if v.broke = 1 then "y" else "ies")
      else
        Format.fprintf fmt "  SLA (budget %.2f) : MISSED (%d over budget, %d never recovered)@\n"
          budget v.sla_misses v.sla_censored

module Tally = struct
  type t = {
    bursts : int;
    broke : int;
    recovered : float list;
    censored : int;
    misses : int;
    met : int;
    availability : float;
  }

  let pool runs =
    let sum f = List.fold_left (fun acc run -> acc + f run) 0 runs in
    let verdict f = sum (fun (_, _, sla) -> match sla with Some v -> f v | None -> 0) in
    let broke =
      List.concat_map (fun (_, bursts, _) -> List.filter (fun (b : burst) -> b.broke) bursts) runs
    in
    {
      bursts = sum (fun (_, bursts, _) -> List.length bursts);
      broke = List.length broke;
      recovered = List.filter_map recovery_time broke;
      censored = List.length (List.filter (fun b -> b.recovered_at = None) broke);
      misses = verdict (fun v -> v.sla_misses);
      met = verdict (fun v -> if v.sla_met then 1 else 0);
      availability =
        (if runs = [] then 0.0
         else Stats.Summary.mean (Array.of_list (List.map (fun (a, _, _) -> a) runs)));
    }

  let of_summaries ?budget summaries =
    let judged s = Option.map (fun budget -> check_sla ~budget s) budget in
    pool (List.map (fun s -> (availability s, s.bursts, judged s)) summaries)
end
