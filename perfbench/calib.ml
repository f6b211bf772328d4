(* Reference seconds: wall time corrected for the speed of the machine.

   The benchmark runs on a few cores of a shared host whose speed drifts
   by tens of percent over minutes (see README.md, "Steadiness"): a whole
   run lands in a fast or a slow stretch, and no statistic over one run's
   wall times can tell the two apart. So a run also times a fixed probe,
   about 2 ms of code that calls nothing of the program, next to its
   timed operations and set-ups. A wall time [t] measured next to a probe
   that took [p] is reported as [t *. nominal_s /. p]: the time it would
   have taken on a machine where the probe takes [nominal_s]. A change to
   the program moves the operation and not the probe, so it shows in
   full; a change in the machine's speed moves both.

   The probe has two parts, each like a kind of work the workloads do.
   The workloads slow down by different amounts when the machine does,
   often by more than any probe tried; over 22 runs of each engine
   workload, in calm and in drifting stretches, these two parts, with the
   arithmetic taking about half the time, took out the most of the
   run-to-run wander overall. A third part, reads scattered over 16 MiB,
   barely moved when the workloads moved most, and only damped the
   probe. *)

(* Integer arithmetic and data-dependent reads and writes of a small
   array that stays in cache, as in the PRNG and the agent array. *)
let small_words = 4096
let small = Array.init small_words (fun i -> i * 40503 land (small_words - 1))

let compute x =
  let acc = ref 0 and j = ref 0 in
  for i = 1 to 120_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    j := (small.(!j) + (!x land 63)) land (small_words - 1);
    small.(!j) <- (small.(!j) + i) land (small_words - 1);
    if !x land 7 = 0 then acc := !acc + List.length (Sys.opaque_identity [ i; !j ])
    else acc := !acc + (!j lxor i)
  done;
  !acc

(* A polymorphic Hashtbl over tuple keys, as in the monitor's counts, cell
   interning and pair caches: a fresh key tuple per lookup, hashed and
   compared by the runtime, in a table of 8192 entries (about half a MiB
   of the heap, the same in every run) that the probe never grows. *)
let keyed : (int * int, int) Hashtbl.t = Hashtbl.create 8192

let () =
  for a = 0 to 63 do
    for b = 0 to 127 do
      Hashtbl.replace keyed (a, b) (a + b)
    done
  done

let hashing x =
  let acc = ref 0 in
  for _ = 1 to 6_000 do
    x := !x lxor (!x lsl 13);
    x := !x lxor (!x lsr 7);
    x := !x lxor (!x lsl 17);
    let k = (!x land 63, (!x lsr 6) land 127) in
    acc := !acc + Hashtbl.find keyed k;
    Hashtbl.replace keyed k (!acc land 1023)
  done;
  !acc

let work () =
  let x = ref 88172645463325252 in
  let a = compute x in
  a + hashing x

(* The probe's wall time on a nominal machine: about its median on the
   2-vCPU Xeon VM the baseline observations in README.md were made on,
   so that reference seconds read close to that machine's wall seconds. *)
let nominal_s = 0.0022

let probes : float list ref = ref []

(* Runs the probe and returns its wall time, which is also kept for the
   report. *)
let probe () =
  let t0 = Trace.now () in
  ignore (Sys.opaque_identity (work ()) : int);
  let p = Trace.now () -. t0 in
  probes := p :: !probes;
  p

(* [t] wall seconds measured next to a probe of [probe_s] seconds, in
   reference seconds. *)
let scale ~probe_s t = t *. nominal_s /. probe_s

let all () = List.rev !probes
