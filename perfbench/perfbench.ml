(* The benchmark program: one workload run, chosen by name and seeded by
   --seed, measured for --seconds, printing a human-readable report and,
   as its last line, one JSON result. See perfbench/README.md. *)

let usage () =
  prerr_endline
    "usage: perfbench --workload agent-table1|count-dense|count-window|fleet-soak --seed N \
     --seconds S --trace 0|1";
  exit 2

(* Workload sizes; README.md gives the reason for each. *)
let agent_n = 256
let dense_n = 48
let window_n = 10_000

(* The per-layer metrics every traced run prints, with their units, read
   from BENCHMARK.json's [per_layer] list in the working directory, so the
   list is written once. A layer a workload does not exercise reads 0:
   every one of them is a count or a ratio. The workload-specific timings
   (ir.compile_s, runner.self_s, count.init_s, the fleet.* times, ...) are
   report lines instead, because they do not exist on every workload. *)
let per_layer () =
  let module J = Telemetry.Json in
  let fail msg =
    Printf.eprintf "perfbench: BENCHMARK.json: %s\n" msg;
    exit 2
  in
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error msg -> fail msg
  in
  let field name j = Option.bind (J.member name j) J.to_string_opt in
  match Result.map (fun j -> Option.bind (J.member "per_layer" j) J.to_list) (J.parse text) with
  | Error msg -> fail msg
  | Ok None -> fail "no per_layer list"
  | Ok (Some metrics) ->
      List.map
        (fun m ->
          match (field "name" m, field "unit" m) with
          | Some name, Some unit -> (name, unit)
          | _ -> fail "a per_layer entry without a name or a unit")
        metrics

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := Option.value ~default:(-1) (int_of_string_opt v); parse rest
    | "--seconds" :: v :: rest -> seconds := Option.value ~default:0.0 (float_of_string_opt v); parse rest
    | "--trace" :: v :: rest -> trace := Option.value ~default:(-1) (int_of_string_opt v); parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let trace = !trace = 1 and seed = !seed and seconds = !seconds in
  let per_layer = if trace then per_layer () else [] in
  let scratch = ".perfbench" in
  if not (Sys.file_exists scratch) then Unix.mkdir scratch 0o755;
  let engine w = Engine_workloads.run w ~seed ~seconds ~trace in
  let r =
    match !workload with
    | "agent-table1" -> engine (Engine_workloads.agent_table1 ~n:agent_n)
    | "count-dense" -> engine (Engine_workloads.count_dense ~n:dense_n)
    | "count-window" -> engine (Engine_workloads.count_window ~n:window_n)
    | "fleet-soak" -> Fleet_workload.run ~scratch ~seed ~seconds ~trace
    | _ -> usage ()
  in
  let ops = float_of_int (List.length r.Run.op_s) in
  let e2e =
    [
      ("setup_s", Run.median r.Run.setup_s, "s");
      ("ptime_per_s", Run.median r.Run.rates, "ptime/s");
      ("op_s.p50", Run.median r.Run.op_s, "s");
      ("heap_peak_mb", r.Run.heap_peak_mb, "MiB");
    ]
  in
  let report (name, v, unit) = Printf.printf "%-36s %.6g %s\n" name v unit in
  Printf.printf "workload %s  seed %d  n %d  ops %d  set-ups %d  timed %.3f s\n" !workload seed
    r.Run.n (List.length r.Run.op_s) (List.length r.Run.setup_s) r.Run.timed_s;
  List.iter report e2e;
  report ("ops_per_s", ops /. r.Run.timed_s, "1/s");
  List.iter report (List.tl (Run.latency "op_s" r.Run.op_s) @ r.Run.report);
  report
    ("failed_share", float_of_int r.Run.failed /. float_of_int (max 1 r.Run.attempted), "ratio");
  List.iter (fun (k, v) -> Printf.printf "counter %s %.17g\n" k v) r.Run.counters;
  List.iter (fun m -> prerr_endline ("check failed: " ^ m)) r.Run.failures;
  let layer =
    if not trace then []
    else begin
      let layer_value name =
        List.find_map (fun (k, v, _) -> if k = name then Some v else None) r.Run.layer
      in
      let size name = int_of_float (Option.value ~default:0.0 (layer_value name)) in
      let cells = max r.Run.n (size "count.closure_size") in
      let pairs = max r.Run.n (size "count.pairs_cached") in
      let leaves =
        List.map
          (fun (k, v) -> (k, v, "ns"))
          (Leaf.all ~n:r.Run.n ~cells ~pairs ~scratch)
      in
      let spans = Trace.all () in
      let path = Filename.concat scratch (Printf.sprintf "spans-%s-seed%d.jsonl" !workload seed) in
      Trace.write ~path spans;
      Printf.printf "spans written to %s\n" path;
      List.iter
        (fun (name, (self, calls)) -> report ("self_s." ^ name, self, Printf.sprintf "s (%d calls)" calls))
        (Trace.self_by_name spans);
      List.iter report r.Run.layer;
      List.iter (fun (k, v, u) -> report (k ^ " (isolated)", v, u)) leaves;
      r.Run.layer @ leaves
    end
  in
  let metrics =
    if trace then
      List.map
        (fun (name, unit) ->
          match List.find_opt (fun (k, _, _) -> k = name) layer with
          | Some (_, v, u) when u = unit -> (name, v, unit)
          | Some (_, _, u) ->
              Printf.eprintf "perfbench: %s is measured in %s, BENCHMARK.json says %s\n" name u unit;
              exit 1
          | None -> (name, 0.0, unit))
        per_layer
    else e2e
  in
  (* A run too short to yield a sample has no value to print. *)
  List.iter
    (fun (k, v, _) ->
      if not (Float.is_finite v) then begin
        Printf.eprintf "perfbench: %s is not a number; no result\n" k;
        exit 1
      end)
    metrics;
  let json_metric (k, v, u) = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" k v u in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (r.Run.failed = 0) r.Run.attempted r.Run.failed
    (String.concat ", " (List.map json_metric metrics))
