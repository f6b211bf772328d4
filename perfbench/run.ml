(* What one workload run hands back to the main program in perfbench.ml. *)

type t = {
  n : int;
  attempted : int;  (** operations attempted (trials or jobs), checks included *)
  failed : int;  (** operations whose output check failed *)
  failures : string list;  (** a few failure messages, for stderr *)
  setup_s : float list;  (** every set-up the run performed, in reference seconds (Calib) *)
  op_s : float list;
      (** time of each timed operation, in order: reference seconds on the
          engine workloads, wall seconds on fleet-soak *)
  timed_s : float;  (** wall time of the timed phase *)
  rates : float list;
      (** throughput samples, simulated interactions / n per second (as
          [op_s]): one per trial, or one per fixed time window on
          fleet-soak. The median is reported, so a burst of load from
          outside the benchmark that slows a few samples does not move it. *)
  heap_peak_mb : float;
  counters : (string * float) list;
      (** exact counters of the seed's first operations (bit-for-bit per seed) *)
  report : (string * float * string) list;
      (** workload-specific end-to-end figures for the report lines only *)
  layer : (string * float * string) list;
      (** traced-phase per-layer metrics: name, value, unit *)
}

(* Stats.Summary.quantile (linear interpolation between order statistics),
   nan for an empty sample. *)
let percentile p xs = if xs = [] then nan else Stats.Summary.quantile (Array.of_list xs) p

let median xs = percentile 0.5 xs

(* The median, and the 90th percentile when it has ten samples beyond it. *)
let latency name xs =
  (name ^ ".p50", median xs, "s")
  :: (if List.length xs >= 100 then [ (name ^ ".p90", percentile 0.9 xs, "s") ] else [])
let sum = List.fold_left ( +. ) 0.0
let heap_peak_mb () = float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. 8.0 /. 1048576.0

(* A tally of checked operations. *)
type tally = { mutable checked : int; mutable bad : int; mutable messages : string list }

let tally () = { checked = 0; bad = 0; messages = [] }

let check t ok msg =
  t.checked <- t.checked + 1;
  if not ok then begin
    t.bad <- t.bad + 1;
    if List.length t.messages < 5 then t.messages <- Lazy.force msg :: t.messages
  end

(* Counters reproduced by a re-run must match bit for bit; a mismatch is
   a failed operation. *)
let check_repro t ~what a b =
  check t (a = b)
    (lazy
      (Printf.sprintf "%s: counters not reproduced (%s)" what
         (String.concat ", "
            (List.filter_map
               (fun (k, v) ->
                 match List.assoc_opt k b with
                 | Some v' when v' = v -> None
                 | Some v' -> Some (Printf.sprintf "%s %g vs %g" k v v')
                 | None -> Some (k ^ " missing"))
               a))))

let stat name stats = Option.value ~default:0.0 (List.assoc_opt name stats)

(* Runs [f] for successive indices until [seconds] of wall time have
   passed since the first call (always at least once). *)
let for_seconds seconds f =
  let t0 = Trace.now () in
  let i = ref 0 in
  while !i = 0 || Trace.now () -. t0 < seconds do
    f !i;
    incr i
  done
