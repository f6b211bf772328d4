type mode = Quick | Full

type measurement = {
  label : string;
  n : int;
  times : float array;
  events : int array;
  failures : int;
  violations : int;
  silent_checked : int;
  silent_ok : int;
}

(* Per-trial record folded (in trial order) into a [measurement]. *)
type trial = {
  time : float option;  (* convergence time, when the trial converged *)
  trial_events : int;  (* state-changing interactions executed *)
  trial_violations : int;
  silent : bool option;  (* silence of the final config, when checked *)
}

let measure ~label ~protocol ~init ~expected_time ?(engine = Engine.Exec.Agent) ?jobs ~trials
    ~seed () =
  let outcomes =
    Fleet.Run.run_trials ?jobs ~trials ~seed (fun _ rng ->
        let config = init rng in
        let exec =
          Telemetry.Span.wrap "init_drain" (fun () ->
              Engine.Exec.make ~kind:engine ~protocol ~init:config ~rng ())
        in
        let outcome = Fleet.Run.stabilize ~expected_time exec in
        let silent =
          if outcome.Engine.Runner.converged && protocol.Engine.Protocol.deterministic then
            (* the count engine answers through its exact oracle; the agent
               engine needs the O(d²) configuration scan *)
            match Engine.Exec.silent exec with
            | Some b -> Some b
            | None ->
                Some
                  (Engine.Silence.configuration_is_silent protocol (Engine.Exec.snapshot exec))
          else None
        in
        Telemetry.Metrics.record_exec exec;
        {
          time =
            (if outcome.Engine.Runner.converged then
               Some outcome.Engine.Runner.convergence_time
             else None);
          trial_events = Engine.Exec.events exec;
          trial_violations = outcome.Engine.Runner.violations;
          silent;
        })
  in
  let times = ref [] in
  let events = ref [] in
  let failures = ref 0 in
  let violations = ref 0 in
  let silent_checked = ref 0 in
  let silent_ok = ref 0 in
  Array.iter
    (fun t ->
      violations := !violations + t.trial_violations;
      (match t.time with
      | Some time ->
          times := time :: !times;
          events := t.trial_events :: !events
      | None -> incr failures);
      match t.silent with
      | Some ok ->
          incr silent_checked;
          if ok then incr silent_ok
      | None -> ())
    outcomes;
  {
    label;
    n = protocol.Engine.Protocol.n;
    times = Array.of_list (List.rev !times);
    events = Array.of_list (List.rev !events);
    failures = !failures;
    violations = !violations;
    silent_checked = !silent_checked;
    silent_ok = !silent_ok;
  }

let summary m = Stats.Summary.of_array m.times

let mean_time m = Stats.Summary.mean m.times

let scaling_fit points =
  Stats.Regression.log_log
    (List.map (fun (n, m) -> (float_of_int n, mean_time m)) points)

let semilog_fit points =
  Stats.Regression.semilog_x
    (List.map (fun (n, m) -> (float_of_int n, mean_time m)) points)

let time_header = [ "n"; "trials"; "mean"; "±95%"; "median"; "p95"; "max"; "fail"; "viol" ]

let time_row m =
  if Array.length m.times = 0 then
    [ string_of_int m.n; "0"; "-"; "-"; "-"; "-"; "-"; string_of_int m.failures;
      string_of_int m.violations ]
  else begin
    let s = summary m in
    [
      string_of_int m.n;
      string_of_int s.Stats.Summary.count;
      Stats.Table.cell_float s.Stats.Summary.mean;
      Stats.Table.cell_float (Stats.Summary.ci95_halfwidth m.times);
      Stats.Table.cell_float s.Stats.Summary.median;
      Stats.Table.cell_float s.Stats.Summary.p95;
      Stats.Table.cell_float s.Stats.Summary.max;
      string_of_int m.failures;
      string_of_int m.violations;
    ]
  end

let trials_of_mode mode ~base = match mode with Full -> base | Quick -> max 5 (base / 3)
