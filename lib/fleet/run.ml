type instance =
  | Instance : {
      protocol : 's Engine.Protocol.t;
      enumerable : ('s Engine.Enumerable.t Lazy.t, string) result;
      scenarios : (string * (Prng.t -> 's array)) list;
      random_state : Prng.t -> 's;
      horizon_scale : float;
    }
      -> instance

let protocols = [ "silent"; "optimal"; "sublinear" ]

let instance ~protocol ~n ~h =
  match protocol with
  | "silent" ->
      Ok
        (Instance
           {
             protocol = Core.Silent_n_state.protocol ~n;
             enumerable = Ok (lazy (Core.Silent_n_state.enumerable ~n));
             scenarios = Core.Scenarios.silent_catalogue ~n;
             random_state = (fun rng -> Core.Scenarios.silent_random_state rng ~n);
             horizon_scale = float_of_int n;
           })
  | "optimal" ->
      let params = Core.Params.optimal_silent n in
      Ok
        (Instance
           {
             protocol = Core.Optimal_silent.protocol ~params ~n ();
             enumerable = Ok (lazy (Core.Optimal_silent.enumerable ~params ~n ()));
             scenarios = Core.Scenarios.optimal_catalogue ~params ~n;
             random_state = (fun rng -> Core.Scenarios.optimal_random_state rng ~params ~n);
             horizon_scale = 40.0;
           })
  | "sublinear" ->
      let params = Core.Params.sublinear ~h n in
      Ok
        (Instance
           {
             protocol = Core.Sublinear.protocol ~params ~n ~h ();
             enumerable = Error "the transition is randomized (it draws real coins)";
             scenarios = Core.Scenarios.sublinear_catalogue ~params ~n;
             random_state = (fun rng -> Core.Scenarios.sublinear_random_state rng ~params ~n);
             horizon_scale = 40.0;
           })
  | other ->
      Error (Printf.sprintf "unknown protocol %S (%s)" other (String.concat " | " protocols))

let check_instance (Instance i) ~protocol ~scenario ~engine ~compiled =
  let name = i.protocol.Engine.Protocol.name in
  if not (List.mem_assoc scenario i.scenarios) then
    Error
      (Printf.sprintf "unknown %s scenario %S (available: %s)" protocol scenario
         (String.concat ", " (List.map fst i.scenarios)))
  else if engine = Engine.Exec.Count && not i.protocol.Engine.Protocol.deterministic then
    Error (Printf.sprintf "the count engine requires a deterministic protocol (got %s)" name)
  else
    match i.enumerable with
    | Error reason when compiled -> Error (Printf.sprintf "%s has no compiled kernel: %s" name reason)
    | Ok _ | Error _ -> Ok ()

let check ~protocol ~n ~h ~scenario ~engine ~compiled =
  Result.bind (instance ~protocol ~n ~h) (fun inst ->
      check_instance inst ~protocol ~scenario ~engine ~compiled)

type mode =
  | Stability of { deadline : int option }
  | Soak of {
      schedule : Chaos.Schedule.t;
      adversary : Chaos.Adversary.t;
      horizon : int;
      sla_budget : int option;
    }

type plan =
  | Plan : {
      protocol : 's Engine.Protocol.t;
      kind : Engine.Exec.kind;
      kernel : 's Ir.Kernel.t option;
      topology : Engine.Topology.t option;
      gen : Prng.t -> 's array;
      random_state : Prng.t -> 's;
      horizon_scale : float;
      mode : mode;
    }
      -> plan

let plan ?topology ~protocol ~n ~h ~scenario ~engine ~compiled mode =
  Result.bind (instance ~protocol ~n ~h) (fun inst ->
      Result.map
        (fun () ->
          let (Instance i) = inst in
          let kernel =
            match i.enumerable with
            | Ok e when compiled -> Some (Ir.Kernel.compile (Lazy.force e))
            | Ok _ | Error _ -> None
          in
          Plan
            {
              protocol = i.protocol;
              kind = engine;
              kernel;
              topology;
              gen = List.assoc scenario i.scenarios;
              random_state = i.random_state;
              horizon_scale = i.horizon_scale;
              mode;
            })
        (check_instance inst ~protocol ~scenario ~engine ~compiled))

exception Deadline_exceeded of { interactions : int; deadline : int }

let () =
  Printexc.register_printer (function
    | Deadline_exceeded { interactions; deadline } ->
        Some
          (Printf.sprintf "deadline exceeded (%d interactions, budget %d)" interactions deadline)
    | _ -> None)

type outcome = Stable of Engine.Runner.outcome | Soaked of Chaos.Soak.report

let succeeded = function
  | Stable o -> o.Engine.Runner.converged
  | Soaked r -> r.Chaos.Soak.sla.Telemetry.Timeline.sla_met

let stabilize ?deadline ~expected_time exec =
  let n = Engine.Exec.n exec in
  let horizon = Engine.Runner.default_horizon ~n ~expected_time in
  let max_interactions = match deadline with Some d -> min d horizon | None -> horizon in
  let o =
    Telemetry.Span.wrap "advance" (fun () ->
        Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking ~max_interactions
          ~confirm_interactions:(Engine.Runner.default_confirm ~n)
          exec)
  in
  (match deadline with
  | Some deadline when not o.Engine.Runner.converged ->
      raise (Deadline_exceeded { interactions = o.Engine.Runner.total_interactions; deadline })
  | Some _ | None -> ());
  o

type hook = { hook : 's. 's Engine.Exec.t -> unit }
type finished = Finished : { exec : 's Engine.Exec.t; outcome : outcome } -> finished

(* Step events are thinned to roughly two samples per unit of parallel
   time; landmark events (correctness transitions, silence, faults) are
   always written. *)
let step_interval ~n = max 1 (n / 2)

let trial ?hook ?sink ?trial ~seed ~scenario_rng ~rng (Plan p) =
  let n = p.protocol.Engine.Protocol.n in
  let init = p.gen scenario_rng in
  let exec =
    Telemetry.Span.wrap "init_drain" (fun () ->
        match p.kernel with
        | Some k -> Ir.Kernel.exec ?topology:p.topology ~kind:p.kind k ~init ~rng
        | None ->
            Engine.Exec.make ?topology:p.topology ~kind:p.kind ~protocol:p.protocol ~init ~rng ())
  in
  Option.iter
    (fun sink ->
      let run =
        Telemetry.Events.make_run ~engine:p.kind ~protocol:p.protocol.Engine.Protocol.name ~n ~seed
          ?trial ()
      in
      Telemetry.Events.attach ~step_interval:(step_interval ~n) exec ~run sink)
    sink;
  Option.iter (fun { hook } -> hook exec) hook;
  let outcome =
    match p.mode with
    | Stability { deadline } ->
        Stable (stabilize ?deadline ~expected_time:(p.horizon_scale *. float_of_int n) exec)
    | Soak { schedule; adversary; horizon; sla_budget } ->
        Soaked
          (Telemetry.Span.wrap "soak" (fun () ->
               Chaos.Soak.run ?sla_budget ~schedule ~adversary ~random_state:p.random_state ~rng
                 ~horizon exec))
  in
  Telemetry.Metrics.record_exec exec;
  Finished { exec; outcome }

(* Trial [i] draws only from the [i]-th child, split from the root before
   anything is dispatched, so the results depend on [seed] and [trials]
   alone, never on [jobs] (see the seeding discipline in [Engine.Pool]).
   The ambient registry, when installed, gets each completed trial's wall
   time and the pool's per-domain utilization, summed over batches. *)
let run_trials ?jobs ~trials ~seed body =
  let children = Prng.split_many (Prng.create ~seed) trials in
  let registry = Telemetry.Metrics.ambient () in
  let one i =
    let t0 = Unix.gettimeofday () in
    let result = body i children.(i) in
    Option.iter
      (fun reg -> Telemetry.Metrics.observe reg "trial_wall_s" (Unix.gettimeofday () -. t0))
      registry;
    result
  in
  match jobs with
  | None -> Array.init trials one
  | Some jobs ->
      (* A worker counts a task in its stats only after the task's result
         is delivered, so the stats are read once [with_pool] has joined
         the workers. *)
      let results, pool =
        Engine.Pool.with_pool ~jobs (fun pool -> (Engine.Pool.init pool trials one, pool))
      in
      Option.iter
        (fun reg ->
          let sum name v =
            Telemetry.Metrics.set reg name
              (v +. Option.value ~default:0.0 (Telemetry.Metrics.gauge_value reg name))
          in
          Array.iteri
            (fun slot { Engine.Pool.tasks; busy_s } ->
              sum (Printf.sprintf "pool.domain%d.tasks" slot) (float_of_int tasks);
              sum (Printf.sprintf "pool.domain%d.busy_s" slot) busy_s)
            (Engine.Pool.stats pool))
        registry;
      results

type batch = {
  results : (outcome, Supervise.failure) result array;
  buffers : Telemetry.Sink.t array;
}

let batch ?jobs ?hook ~events ~seed ~trials plan =
  let buffers = if events then Array.init trials (fun _ -> Telemetry.Sink.buffer ()) else [||] in
  let one i rng =
    let sink = if events then Some buffers.(i) else None in
    let (Finished { outcome; _ }) = trial ?hook ?sink ~trial:i ~seed ~scenario_rng:rng ~rng plan in
    outcome
  in
  (* On a pool each trial is supervised, so a raising trial becomes an
     [Error] and its siblings still run; in order, the first raise ends
     the batch. *)
  let one =
    match jobs with
    | None -> fun i rng -> Ok (one i rng)
    | Some _ -> fun i rng -> Supervise.run (fun () -> one i rng)
  in
  { results = run_trials ?jobs ~trials ~seed one; buffers }

(* Failed trials' partial buffers are skipped: completed trials'
   telemetry is kept, half-written runs are not. *)
let write_events b path =
  let sink = Telemetry.Sink.file path in
  Array.iteri
    (fun i buffer ->
      if Result.is_ok b.results.(i) then
        String.split_on_char '\n' (Telemetry.Sink.contents buffer)
        |> List.iter (fun line -> if line <> "" then Telemetry.Sink.write_line sink line))
    b.buffers;
  Telemetry.Sink.close sink
