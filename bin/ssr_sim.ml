(* ssr_sim: run one self-stabilizing ranking simulation from the command
   line and print a timeline. Examples:

     ssr_sim -p optimal -n 64 -s uniform --seed 7
     ssr_sim -p sublinear -n 16 -H 4 -s name-collision -v
     ssr_sim -p silent -n 32 -s worst-case
     ssr_sim -p silent -n 2048 -s worst-case --engine count
     ssr_sim -p loose -n 32
     ssr_sim -p optimal -n 24 -s duplicate-rank --topology ring
     ssr_sim -p optimal -n 64 --trials 200 --jobs 4
     ssr_sim -p silent -n 512 --trials 50 --engine count
     ssr_sim -p optimal -n 1000000 -s correct --engine count
     ssr_sim -p optimal -n 100000 -s uniform --engine count --topology star

   The command line is validated into a Fleet.Job.t; Fleet.Run holds the
   protocol catalogue, builds the executors and runs the trial or the
   batch, exactly as for a fleet job. This file prints the reports. *)

module Run = Fleet.Run

let usage msg =
  prerr_endline msg;
  exit 2

let topology_of ~n = function
  | "complete" -> None
  | "ring" -> Some (Engine.Topology.ring ~n)
  | "star" -> Some (Engine.Topology.star ~n)
  | "regular4" -> Some (Engine.Topology.random_regular (Prng.create ~seed:99) ~n ~degree:4)
  | other -> usage (Printf.sprintf "unknown topology '%s' (complete | ring | star | regular4)" other)

(* The count engine takes a non-complete topology through its
   degree-class lumping (Topology.degree_classes): exact on the star, the
   annealed approximation on the ring or a random regular graph. [lumping]
   is that topology and whether its lumping is exact; [None] off the count
   engine or on the complete graph. *)
let lumping (Run.Plan p) =
  match (p.kind, p.topology) with
  | Engine.Exec.Count, Some t -> Some (t, (Engine.Topology.degree_classes t).Engine.Topology.exact)
  | _ -> None

(* Warn once, loudly, rather than silently reporting approximate numbers
   as exact; the events manifest records the lumping too. *)
let warn_annealed plan =
  match lumping plan with
  | Some (t, false) ->
      Printf.eprintf
        "warning: degree-class lumping of '%s' is not exact; the count engine runs the annealed \
         approximation (degree sequence honored, wiring resampled every interaction)\n%!"
        (Engine.Topology.name t)
  | _ -> ()

let pp_header ?domains ~(job : Fleet.Job.t) (Run.Plan p) =
  Printf.printf "protocol            : %s\n" p.protocol.Engine.Protocol.name;
  Printf.printf "engine              : %s\n" (Engine.Exec.kind_to_string p.kind);
  Option.iter
    (fun k ->
      Printf.printf "kernel              : compiled (%d live states, %s, %.1f ms compile)\n"
        (Ir.Kernel.states k)
        (if Ir.Kernel.exact k then "exact" else "quotient")
        (1000.0 *. k.Ir.Kernel.compile_s))
    p.kernel;
  Printf.printf "population          : %d\n" job.Fleet.Job.n;
  Option.iter (Printf.printf "chaos               : %s\n") job.Fleet.Job.chaos;
  Option.iter
    (fun jobs ->
      Printf.printf "trials              : %d (on %d domain%s)\n" job.Fleet.Job.trials jobs
        (if jobs = 1 then "" else "s"))
    domains

let pp_stable (Run.Plan p) exec (o : Engine.Runner.outcome) =
  let n = p.protocol.Engine.Protocol.n in
  Printf.printf "converged           : %b\n" o.converged;
  if o.converged then
    Printf.printf "stabilization time  : %.2f (parallel time units)\n" o.convergence_time
  else
    (* an unconverged run stopped either silent in an incorrect
       configuration or at its horizon; say which, and when *)
    Printf.printf "stopped             : %s at %.2f (parallel time units)\n"
      (if Engine.Exec.silent exec = Some true then "silent-incorrect" else "horizon")
      (float_of_int o.total_interactions /. float_of_int n);
  Printf.printf "interactions        : %d\n" o.total_interactions;
  if p.kind = Engine.Exec.Count then
    Printf.printf "productive events   : %d\n" (Engine.Exec.events exec);
  Printf.printf "correctness losses  : %d\n" o.violations;
  match Engine.Exec.silent exec with
  | Some silent -> Printf.printf "final config silent : %b (exact oracle)\n" silent
  | None ->
      if p.protocol.Engine.Protocol.deterministic && o.converged then
        if n <= 4096 then
          (* the fallback scan is O(distinct states²) transition probes —
             fine at experiment sizes, not at the count engine's n = 10⁶ *)
          Printf.printf "final config silent : %b\n"
            (Engine.Silence.configuration_is_silent (Engine.Exec.protocol exec)
               (Engine.Exec.snapshot exec))
        else Printf.printf "final config silent : unknown (population too large to scan)\n"

(* The events manifest and the metrics dump, once the report is out. *)
let write_outputs ~(job : Fleet.Job.t) ~topology ~jobs ~events ~metrics ~t0 (Run.Plan p as plan)
    values =
  let wall_clock_s = Unix.gettimeofday () -. t0 in
  Option.iter
    (fun path ->
      let params =
        [
          ("scenario", Telemetry.Json.String job.scenario);
          ("topology", Telemetry.Json.String topology);
          ("kernel", Telemetry.Json.String (if p.kernel = None then "interp" else "compiled"));
        ]
        @ (match lumping plan with
          | Some (_, exact) ->
              [ ("lumping", Telemetry.Json.String (if exact then "exact" else "annealed")) ]
          | None -> [])
        @
        match (job.chaos, p.mode) with
        | Some spec, Run.Soak { horizon; sla_budget; _ } ->
            [
              ("chaos", Telemetry.Json.String spec);
              ("horizon_interactions", Telemetry.Json.Int horizon);
              ( "sla_budget_interactions",
                Telemetry.Json.Int
                  (Option.value sla_budget ~default:(Chaos.Soak.default_budget ~n:job.n)) );
            ]
        | _ -> [ ("horizon_scale", Telemetry.Json.Float p.horizon_scale) ]
      in
      Telemetry.Manifest.write ~path:(path ^ ".manifest.json")
        (Telemetry.Manifest.make ~run:"ssr_sim" ~protocol:p.protocol.Engine.Protocol.name
           ~engine:(Engine.Exec.kind_to_string p.kind) ~n:job.n ~seed:job.seed ~trials:job.trials
           ~jobs ~params ~wall_clock_s ()))
    events;
  Option.iter
    (fun (path, reg) ->
      List.iter (fun (name, v) -> Telemetry.Metrics.set reg name v) values;
      Telemetry.Metrics.write ~path reg)
    metrics

(* A single run keeps its historical entropy (see Fleet.Run): run
   generator [seed], scenario generator [seed + 1000], no trial tag. *)
let run_single ~(job : Fleet.Job.t) ~verbose ~topology ~events ~metrics plan =
  let n = job.n and seed = job.seed in
  let t0 = Unix.gettimeofday () in
  let sink = Option.map Telemetry.Sink.file events in
  let collector = Engine.Instrument.collector ~interval:(max 1 (n / 2)) () in
  let timeline exec =
    Engine.Exec.on exec
      (Engine.Instrument.sampled collector (fun () ->
           ( Engine.Exec.leader_count exec,
             Engine.Exec.ranked_agents exec,
             if Engine.Exec.ranking_correct exec then "RANKED" else "" )))
  in
  let hook = if verbose && job.chaos = None then Some { Run.hook = timeline } else None in
  let (Run.Finished { exec; outcome }) =
    Run.trial ?hook ?sink ~seed ~scenario_rng:(Prng.create ~seed:(seed + 1000))
      ~rng:(Prng.create ~seed) plan
  in
  if hook <> None then begin
    Printf.printf "time       leaders  ranked  status\n";
    List.iter
      (fun (t, (leaders, ranked, status)) ->
        Printf.printf "%-10.2f %-8d %-7d %s\n" t leaders ranked status)
      (Engine.Instrument.series collector)
  end;
  pp_header ~job plan;
  Option.iter Telemetry.Sink.close sink;
  (* a batch's trials time themselves (Run.run_trials); a single run is
     its own one trial *)
  Option.iter
    (fun (_, reg) -> Telemetry.Metrics.observe reg "trial_wall_s" (Unix.gettimeofday () -. t0))
    metrics;
  let write values = write_outputs ~job ~topology ~jobs:1 ~events ~metrics ~t0 plan values in
  match outcome with
  | Run.Stable o ->
      pp_stable plan exec o;
      write
        [
          ("converged", if o.converged then 1.0 else 0.0);
          ("violations", float_of_int o.violations);
        ];
      if o.converged then 0 else 1
  | Run.Soaked r ->
      Chaos.Soak.print_report stdout ~n r;
      write [ ("availability", r.availability) ];
      (* Chaos mode reports; the SLA verdict is data, not an exit code. *)
      0

(* Batch mode (--trials > 1): trials on a domain pool, each supervised, so
   a raising trial is listed as a failure and its siblings still report;
   the numbers and the events file are identical for every --jobs value. *)
let run_batch ~(job : Fleet.Job.t) ~topology ~jobs ~events ~metrics plan =
  let (Run.Plan p) = plan in
  let n = job.n and trials = job.trials in
  let t0 = Unix.gettimeofday () in
  let b = Run.batch ~jobs ~events:(events <> None) ~seed:job.seed ~trials plan in
  let outcomes = List.filter_map Result.to_option (Array.to_list b.results) in
  let errors =
    List.concat
      (List.mapi
         (fun i -> function Ok _ -> [] | Error f -> [ (Printf.sprintf "trial %d" i, f) ])
         (Array.to_list b.results))
  in
  let pp_failures () =
    if errors <> [] then begin
      Printf.printf "trial failures      : %d\n" (List.length errors);
      Format.printf "%a" Fleet.Supervise.pp_failures errors
    end
  in
  pp_header ~domains:jobs ~job plan;
  let reports = List.filter_map (function Run.Soaked r -> Some r | Run.Stable _ -> None) outcomes in
  let values, code =
    match p.mode with
    | Run.Stability _ ->
        let times =
          List.filter_map
            (function
              | Run.Stable o when o.converged -> Some o.convergence_time
              | Run.Stable _ | Run.Soaked _ -> None)
            outcomes
        in
        Printf.printf "converged           : %d of %d\n" (List.length times) trials;
        pp_failures ();
        if times <> [] then begin
          let s = Stats.Summary.of_list times in
          Printf.printf "stabilization time  : mean %.2f  median %.2f  p95 %.2f  max %.2f\n"
            s.Stats.Summary.mean s.Stats.Summary.median s.Stats.Summary.p95 s.Stats.Summary.max
        end;
        ( [ ("converged", float_of_int (List.length times)); ("trials", float_of_int trials) ],
          if List.length times = trials then 0 else 1 )
    | Run.Soak { horizon; _ } ->
        Printf.printf "horizon             : %.2f time units each (%d interactions)\n"
          (float_of_int horizon /. float_of_int n)
          horizon;
        pp_failures ();
        Chaos.Soak.print_pooled stdout ~n ~trials reports;
        let { Telemetry.Timeline.Tally.availability; met; _ } = Chaos.Soak.pool reports in
        ( [
            ("trials", float_of_int trials);
            ("availability_mean", availability);
            ("sla_trials_met", float_of_int met);
          ],
          (* SLA misses are data; a trial that raised is a harness failure. *)
          if errors = [] then 0 else 1 )
  in
  Option.iter (Run.write_events b) events;
  write_outputs ~job ~topology ~jobs ~events ~metrics ~t0 plan values;
  code

let run_loose ~n ~seed ~verbose =
  let t_max = 4 * n in
  let protocol = Core.Loose.protocol ~n ~t_max in
  let rng = Prng.create ~seed in
  let exec =
    Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol ~init:(Core.Loose.uniform rng ~n ~t_max)
      ~rng ()
  in
  let correct () = Engine.Exec.leader_correct exec in
  Engine.Runner.run_while exec ~max_interactions:(100 * t_max * n) (fun () -> not (correct ()));
  Printf.printf "protocol            : %s\n" protocol.Engine.Protocol.name;
  Printf.printf "population          : %d (rules only use t_max=%d)\n" n t_max;
  Printf.printf "unique leader       : %b after %.2f time units\n" (correct ())
    (Engine.Exec.parallel_time exec);
  if verbose then begin
    let start = Engine.Exec.interactions exec in
    Engine.Runner.run_while exec ~max_interactions:(start + (50_000 * n)) correct;
    Printf.printf "holding time        : %s%.0f time units (%s)\n"
      (if correct () then "> " else "")
      (float_of_int (Engine.Exec.interactions exec - start) /. float_of_int n)
      (if correct () then "budget exhausted" else "loose stabilization")
  end;
  if correct () || verbose then 0 else 1

let main protocol n h scenario seed verbose topology engine kernel trials jobs events metrics chaos
    sla horizon =
  let engine =
    match engine with
    | "agent" -> Engine.Exec.Agent
    | "count" -> Engine.Exec.Count
    | other -> usage (Printf.sprintf "unknown engine '%s' (agent | count)" other)
  in
  let kernel =
    match kernel with
    | "interp" -> Fleet.Job.Interp
    | "compiled" -> Fleet.Job.Compiled
    | other -> usage (Printf.sprintf "unknown kernel '%s' (interp | compiled)" other)
  in
  (* An explicit --jobs is checked on every run; REPRO_JOBS is read only
     by a batch, the one mode with a pool. *)
  let jobs =
    if jobs = None && trials <= 1 then 1
    else match Engine.Pool.resolve_jobs jobs with Ok j -> j | Error msg -> usage msg
  in
  if protocol = "loose" then begin
    let unsupported what = usage (what ^ " not supported for the loose protocol") in
    if n < 2 then usage (Printf.sprintf "n must be >= 2 (got %d)" n);
    if scenario <> "uniform" then unsupported (Printf.sprintf "scenario '%s' is" scenario);
    if topology <> "complete" then unsupported "--topology is";
    if kernel = Fleet.Job.Compiled then unsupported "--kernel compiled is";
    if trials > 1 then unsupported "--trials is";
    if engine = Engine.Exec.Count then unsupported "--engine count is";
    if events <> None || metrics <> None then unsupported "--events/--metrics are";
    if chaos <> None || sla <> None || horizon <> None then unsupported "--chaos/--sla/--horizon are";
    run_loose ~n ~seed ~verbose
  end
  else
    let resolved =
      Result.bind
        (Fleet.Job.make ~id:"ssr_sim" ~protocol ~n ~h ~seed ~scenario ~engine ~kernel ~trials
           ?chaos ?horizon ?sla ())
        (fun job ->
          Result.map (fun plan -> (job, plan)) (Fleet.Job.plan ?topology:(topology_of ~n topology) job))
    in
    match resolved with
    | Error msg -> usage msg
    | Ok (job, plan) ->
        warn_annealed plan;
        let metrics = Option.map (fun path -> (path, Telemetry.Metrics.create ())) metrics in
        Option.iter (fun (_, reg) -> Telemetry.Metrics.install reg) metrics;
        Fun.protect
          ~finally:(fun () -> if metrics <> None then Telemetry.Metrics.uninstall ())
          (fun () ->
            if trials > 1 then run_batch ~job ~topology ~jobs ~events ~metrics plan
            else run_single ~job ~verbose ~topology ~events ~metrics plan)

open Cmdliner

let arg kind default names docv doc = Arg.(value & opt kind default & info names ~docv ~doc)

let cmd =
  let doc = "simulate self-stabilizing ranking / leader election population protocols" in
  Cmd.v (Cmd.info "ssr_sim" ~version:"1.0" ~doc)
    Term.(
      const main
      $ arg Arg.string "optimal" [ "p"; "protocol" ] "NAME"
          "Protocol: silent (Silent-n-state-SSR), optimal (Optimal-Silent-SSR), sublinear \
           (Sublinear-Time-SSR) or loose (loosely-stabilizing LE)."
      $ arg Arg.int 32 [ "n" ] "N" "Population size."
      $ arg Arg.int 2 [ "H"; "depth" ] "H"
          "History depth H for the sublinear protocol (0 = direct detection)."
      $ arg Arg.string "uniform" [ "s"; "scenario" ] "SCENARIO"
          "Initial-configuration scenario (use a bogus name to list the options)."
      $ arg Arg.int 1 [ "seed" ] "SEED" "PRNG seed."
      $ Arg.(
          value & flag
          & info [ "v"; "verbose" ]
              ~doc:"Print the convergence timeline (for loose: also measure holding time).")
      $ arg Arg.string "complete" [ "topology" ] "GRAPH"
          "Interaction graph: complete, ring, star or regular4. The agent engine samples the \
           graph's edges directly; the count engine lumps it by degree class (exact on star, \
           annealed approximation — with a warning — on ring and regular4)."
      $ arg Arg.string "agent" [ "engine" ] "ENGINE"
          "Executor: agent (every interaction simulated) or count (lazy count-based engine for \
           deterministic protocols: exact null-interaction skipping with on-demand pair probing, \
           and an exact silence oracle while the live-state set stays small — reaches \
           populations of 10⁶ on every deterministic protocol, e.g. $(b,-p optimal -n 1000000 \
           -s correct))."
      $ arg Arg.string "interp" [ "kernel" ] "KERNEL"
          "Transition kernel: interp (call the protocol's OCaml transition directly) or compiled \
           (compile the protocol through the IR pipeline to packed int codes, with a memoized \
           transition table when the state space fits its budget; observables are identical. A \
           memoized kernel is faster on an expensive transition, a tableless one trails the \
           interpreter, e.g. Optimal-Silent at n = 256 with 6963 states — see DESIGN.md \
           \"Protocol IR\"). Deterministic protocols with a declared state space only."
      $ arg Arg.int 1 [ "trials" ] "TRIALS"
          "Run this many independent trials and print summary statistics instead of a single \
           timeline."
      $ arg Arg.(some int) None [ "j"; "jobs" ] "JOBS"
          "Number of domains running trials in parallel (default: $(b,REPRO_JOBS) or the \
           recommended domain count). Results are identical for every value."
      $ arg Arg.(some string) None [ "events" ] "FILE"
          "Write the run's instrumentation events to $(docv) as JSONL (schema v1; see DESIGN.md \
           \"Telemetry\"). A run manifest is written next to it as $(docv).manifest.json. With \
           --trials, every trial's events land in the same file, tagged with their trial index, \
           in trial order regardless of --jobs."
      $ arg Arg.(some string) None [ "metrics" ] "FILE"
          "Write a JSON metrics summary (engine counters, per-trial wall times, pool \
           utilization) to $(docv) at the end of the run."
      $ arg Arg.(some string) None [ "chaos" ] "SPEC"
          "Soak the run under a sustained fault schedule instead of running to stability, and \
           report availability and recovery SLAs. $(docv) is a comma-separated spec combining \
           schedule clauses (burst:AT, periodic:EVERY, poisson:RATE — RATE in faults per \
           parallel time unit; compose with +) with exactly one adversary clause (corrupt:F, \
           kill-leader, duplicate-rank, stuck:AGENTS:DURATION). Example: $(b,--chaos \
           poisson:0.1,corrupt:0.05)."
      $ arg Arg.(some float) None [ "sla" ] "TIME"
          "Recovery SLA budget in parallel time units (chaos mode only). A burst that breaks \
           correctness must recover within the budget; default: 4 confirmation windows."
      $ arg Arg.(some float) None [ "horizon" ] "TIME"
          "Soak length in parallel time units (chaos mode only; default: 8 confirmation \
           windows).")

(* Every usage error exits 2, cmdliner's own parse errors (an unknown
   option, a malformed number) included. *)
let () = exit (match Cmd.eval' cmd with c when c = Cmd.Exit.cli_error -> 2 | c -> c)
