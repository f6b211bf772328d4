(* Isolated leaf costs: tight loops over single public functions, timed
   as a whole and divided by the iteration count. They are reported with
   an [_ns] name and labelled isolated: a loop keeps its data in cache and
   its branches predicted, so it bounds a layer's cost from below rather
   than measuring it inside a workload. Sizes come from the workload the
   traced run measured. *)

module E = Engine

let iterations = 200_000

let ns_per ~iters f =
  let t0 = Trace.now () in
  f ();
  (Trace.now () -. t0) *. 1e9 /. float_of_int iters

(* A fixed pseudo-random index stream, drawn before timing starts. *)
let indices ~seed ~bound =
  let rng = Prng.create ~seed in
  Array.init iterations (fun _ -> Prng.int rng (max 1 bound))

let blackhole = ref 0

(* Transitions over state pairs drawn from a real start configuration,
   interpreted and through the compiled kernel. *)
let transition ~n =
  let params = Core.Params.optimal_silent n in
  let protocol = Core.Optimal_silent.protocol ~params ~n () in
  let kernel = Ir.Kernel.compile (Core.Optimal_silent.enumerable ~params ~n ()) in
  let config = Core.Scenarios.optimal_uniform (Prng.create ~seed:7) ~params ~n in
  let codes = Array.map (Ir.Kernel.encode kernel) config in
  let a = indices ~seed:8 ~bound:n and b = indices ~seed:9 ~bound:n in
  let rng = Prng.create ~seed:10 in
  let interp =
    ns_per ~iters:iterations (fun () ->
        for i = 0 to iterations - 1 do
          let x, _ = protocol.E.Protocol.transition rng config.(a.(i)) config.(b.(i)) in
          if x == config.(0) then incr blackhole
        done)
  in
  let step = kernel.Ir.Kernel.compiled.E.Protocol.transition in
  let compiled =
    ns_per ~iters:iterations (fun () ->
        for i = 0 to iterations - 1 do
          let x, _ = step rng codes.(a.(i)) codes.(b.(i)) in
          blackhole := !blackhole + x
        done)
  in
  (interp, compiled, protocol, config)

let sampler ~n =
  let rng = Prng.create ~seed:11 in
  ns_per ~iters:iterations (fun () ->
      for _ = 1 to iterations do
        let i, _ = Prng.distinct_pair rng n in
        blackhole := !blackhole + i
      done)

let monitor protocol config =
  let m = E.Monitor.create protocol config in
  let n = Array.length config in
  let a = indices ~seed:12 ~bound:n and b = indices ~seed:13 ~bound:n in
  ns_per ~iters:(2 * iterations) (fun () ->
      for i = 0 to iterations - 1 do
        E.Monitor.update m ~old_state:config.(a.(i)) ~new_state:config.(b.(i));
        E.Monitor.update m ~old_state:config.(b.(i)) ~new_state:config.(a.(i))
      done)

let fenwick ~size =
  let f = E.Fenwick.create () in
  for i = 0 to size - 1 do
    E.Fenwick.append f;
    E.Fenwick.add f i (1 + (i mod 7))
  done;
  let targets = indices ~seed:14 ~bound:(E.Fenwick.total f) in
  let slots = indices ~seed:15 ~bound:size in
  let find =
    ns_per ~iters:iterations (fun () ->
        Array.iter (fun t -> blackhole := !blackhole + E.Fenwick.find f t) targets)
  in
  let add =
    ns_per ~iters:(2 * iterations) (fun () ->
        Array.iter
          (fun i ->
            E.Fenwick.add f i 1;
            E.Fenwick.add f i (-1))
          slots)
  in
  (find, add)

(* [size] entries keyed over the ordered pairs of about sqrt size cells. *)
let paircache ~size =
  let cells = max 2 (int_of_float (Float.sqrt (float_of_int size)) + 1) in
  let keys = indices ~seed:16 ~bound:(cells * cells) in
  let c = E.Paircache.create () in
  for k = 0 to size - 1 do
    E.Paircache.add c (k * 7919 mod (cells * cells)) k
  done;
  let find =
    ns_per ~iters:iterations (fun () ->
        Array.iter (fun k -> blackhole := !blackhole + E.Paircache.find c k) keys)
  in
  let fresh = E.Paircache.create () in
  let add =
    ns_per ~iters:iterations (fun () -> Array.iteri (fun i k -> E.Paircache.add fresh k i) keys)
  in
  (find, add)

(* One typical events line written through a file sink. *)
let sink_write ~path =
  let run =
    Telemetry.Events.make_run ~engine:E.Exec.Agent ~protocol:"optimal-silent" ~n:64 ~seed:1 ()
  in
  let line i =
    Telemetry.Events.to_json ~run
      (E.Instrument.Step { interactions = i; time = float_of_int i /. 64.0 })
  in
  let lines = Array.init 1000 (fun i -> Telemetry.Json.to_string (line i)) in
  let s = Telemetry.Sink.file path in
  let ns =
    ns_per ~iters:iterations (fun () ->
        for i = 0 to iterations - 1 do
          Telemetry.Sink.write_line s lines.(i mod 1000)
        done;
        Telemetry.Sink.flush s)
  in
  Telemetry.Sink.close s;
  Sys.remove path;
  ns

(* [n] sizes the transition, sampler and monitor loops (at most 256, the
   agent-table1 size, so the kernel compile stays cheap); [cells] and
   [pairs] size the Fenwick tree and the pair cache. *)
let all ~n ~cells ~pairs ~scratch =
  let n = min n 256 in
  let interp, compiled, protocol, config = transition ~n in
  let ffind, fadd = fenwick ~size:(max 2 cells) in
  let pfind, padd = paircache ~size:(max 2 pairs) in
  [
    ("transition.interp_ns", interp);
    ("transition.compiled_ns", compiled);
    ("sampler.draw_ns", sampler ~n);
    ("monitor.update_ns", monitor protocol config);
    ("fenwick.find_ns", ffind);
    ("fenwick.add_ns", fadd);
    ("paircache.find_ns", pfind);
    ("paircache.add_ns", padd);
    ("sink.write_ns", sink_write ~path:(Filename.concat scratch "sink-loop.jsonl"));
  ]
