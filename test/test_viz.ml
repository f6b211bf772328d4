(* The visualization pipeline: scales, chart builders, golden SVG
   byte-identity over the checked-in fixtures, the tailer's
   truncated-line tolerance, spans, and an HTTP/SSE smoke test that
   interleaves client and server in one process via Serve.poll. *)

let check_string = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let read_file path =
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load_events path =
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      match Telemetry.Timeline.load ic with
      | Ok events -> events
      | Error msg -> Alcotest.failf "%s: %s" path msg)

let load_json path =
  match Telemetry.Json.parse (read_file path) with
  | Ok json -> json
  | Error msg -> Alcotest.failf "%s: %s" path msg

(* {2 Scales} *)

let test_scale_linear () =
  let s = Viz.Scale.make Viz.Scale.Linear ~domain:(0.0, 10.0) ~range:(0.0, 100.0) in
  Alcotest.(check (float 1e-9)) "midpoint" 50.0 (Viz.Scale.apply s 5.0);
  let ticks = Viz.Scale.ticks s in
  check_bool "several ticks" true (List.length ticks >= 3);
  List.iter (fun v -> check_bool "tick inside domain" true (v >= 0.0 && v <= 10.0)) ticks

let test_scale_degenerate () =
  (* equal endpoints repair rather than divide by zero *)
  let s = Viz.Scale.make Viz.Scale.Linear ~domain:(3.0, 3.0) ~range:(0.0, 100.0) in
  let lo, hi = Viz.Scale.domain s in
  check_bool "repaired to a real interval" true (lo < hi);
  check_bool "apply finite" true (Float.is_finite (Viz.Scale.apply s 3.0));
  (* non-finite domain repairs too *)
  let s = Viz.Scale.make Viz.Scale.Linear ~domain:(Float.nan, infinity) ~range:(0.0, 1.0) in
  let lo, hi = Viz.Scale.domain s in
  check_bool "nan domain repaired" true (Float.is_finite lo && Float.is_finite hi && lo < hi)

let test_scale_log () =
  let s = Viz.Scale.make Viz.Scale.Log ~domain:(1.0, 1000.0) ~range:(0.0, 300.0) in
  Alcotest.(check (float 1e-9)) "decade spacing" 100.0 (Viz.Scale.apply s 10.0);
  check_int "decade ticks" 4 (List.length (Viz.Scale.ticks s));
  (* zero/negative data clamps to the low edge instead of NaN *)
  Alcotest.(check (float 1e-9)) "clamped" 0.0 (Viz.Scale.apply s 0.0);
  Alcotest.(check (float 1e-9)) "clamped negative" 0.0 (Viz.Scale.apply s (-5.0));
  (* a domain touching zero is repaired to something positive *)
  let s = Viz.Scale.make Viz.Scale.Log ~domain:(0.0, 100.0) ~range:(0.0, 1.0) in
  let lo, _ = Viz.Scale.domain s in
  check_bool "positive lo" true (lo > 0.0);
  (* sub-decade domains fall back to linear-style ticks *)
  let s = Viz.Scale.make Viz.Scale.Log ~domain:(8.0, 16.0) ~range:(0.0, 1.0) in
  check_bool "sub-decade ticks" true (List.length (Viz.Scale.ticks s) >= 3)

let test_tick_labels () =
  check_string "integer" "50" (Viz.Scale.tick_label 50.0);
  check_string "zero" "0" (Viz.Scale.tick_label 0.0);
  check_string "negative" "-2.5" (Viz.Scale.tick_label (-2.5));
  check_string "scientific large" "1e6" (Viz.Scale.tick_label 1e6);
  check_string "scientific small" "2.5e-5" (Viz.Scale.tick_label 2.5e-5)

(* {2 Chart builders: total on degenerate input} *)

let test_empty_charts () =
  (* no series / empty series / single points must render, not raise *)
  let renders chart =
    let svg = Viz.Plot.render chart in
    check_bool "renders svg" true
      (String.length svg > 0 && String.sub svg 0 5 = "<?xml")
  in
  renders (Viz.Plot.chart ~title:"empty" []);
  renders (Viz.Plot.chart ~title:"empty series" [ Viz.Plot.series (Viz.Plot.Line [||]) ]);
  renders
    (Viz.Plot.chart ~title:"single point"
       [ Viz.Plot.series ~label:"s" (Viz.Plot.Line_points [| (1.0, 1.0) |]) ]);
  renders
    (Viz.Plot.chart ~title:"log with zero" ~x_kind:Viz.Scale.Log
       [ Viz.Plot.series (Viz.Plot.Points [| (0.0, 1.0); (10.0, 2.0) |]) ]);
  renders (Viz.Charts.slope_fit []);
  renders (Viz.Charts.recovery_cdf []);
  renders (Viz.Charts.availability []);
  renders (Viz.Charts.phase_profile (Telemetry.Json.Obj []))

let test_render_deterministic () =
  let chart =
    Viz.Charts.slope_points
      [ ("a", [ (8.0, 30.0, 2.0); (16.0, 120.0, 8.0) ]); ("b", [ (8.0, 10.0, 1.0) ]) ]
  in
  check_string "same chart, same bytes" (Viz.Plot.render chart) (Viz.Plot.render chart)

let test_svg_escaping () =
  let svg =
    Viz.Plot.render
      (Viz.Plot.chart ~title:{|<&"> to escape|}
         [ Viz.Plot.series ~label:"a<b" (Viz.Plot.Line [| (0.0, 0.0); (1.0, 1.0) |]) ])
  in
  let contains sub =
    let n = String.length svg and m = String.length sub in
    let rec at i = i + m <= n && (String.sub svg i m = sub || at (i + 1)) in
    at 0
  in
  check_bool "escaped title" true (contains "&lt;&amp;&quot;&gt; to escape");
  check_bool "no raw <& in text" false (contains {|<&">|})

(* {2 Golden SVGs over the checked-in fixtures}

   These hold the whole pipeline — event decoding, timeline folding,
   aggregation, scales, layout, serialization — byte for byte. The same
   fixtures drive [plot --embed], so figures/*.svg stay regenerable.
   Regenerate after an intentional rendering change:
     dune exec bin/plot.exe -- --embed && cp figures/<new>.svg test/golden/... *)

let check_golden_svg ~golden chart =
  let want = read_file ("golden/" ^ golden) in
  check_string
    (Printf.sprintf "matches %s (regenerate: plot --embed, then copy from figures/)" golden)
    want (Viz.Plot.render chart)

let test_golden_slope () =
  check_golden_svg ~golden:"svg_slope.svg"
    (Viz.Charts.slope_fit ~title:"Convergence time vs population size (fixture sweep)"
       (load_events "golden/viz_slope.jsonl"))

let test_golden_availability () =
  check_golden_svg ~golden:"svg_availability.svg"
    (Viz.Charts.availability
       (Viz.Charts.availability_points
          (List.map
             (fun (load, file) -> (load, Telemetry.Timeline.fold (load_events ("golden/" ^ file))))
             [
               (0.25, "viz_avail_025.jsonl");
               (1.0, "viz_avail_1.jsonl");
               (4.0, "viz_avail_4.jsonl");
             ])))

let test_golden_recovery_cdf () =
  check_golden_svg ~golden:"svg_recovery_cdf.svg"
    (Viz.Charts.recovery_cdf (load_events "golden/viz_soak.jsonl"))

let test_golden_phase_profile () =
  let json = load_json "golden/viz_phases.metrics.json" in
  check_bool "fixture has spans" true (Viz.Charts.has_spans json);
  check_golden_svg ~golden:"svg_phase_profile.svg" (Viz.Charts.phase_profile json)

(* {2 Timeline: truncated final line} *)

let run_a = Telemetry.Events.make_run ~engine:Engine.Exec.Agent ~protocol:"P" ~n:8 ~seed:1 ()

let line event = Telemetry.Json.to_string (Telemetry.Events.to_json ~run:run_a event)

let load_string s =
  let path = Filename.temp_file "viz_load" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc s;
      close_out oc;
      let ic = open_in path in
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Telemetry.Timeline.load ic))

let test_load_truncated_tail () =
  let l1 = line (Engine.Instrument.Step { interactions = 8; time = 1.0 }) in
  let l2 = line (Engine.Instrument.Correct_entered { interactions = 16; time = 2.0 }) in
  (* a writer mid-line: the complete prefix decodes, the torn tail is
     dropped silently *)
  let torn = l1 ^ "\n" ^ String.sub l2 0 (String.length l2 / 2) in
  (match load_string torn with
  | Ok events -> check_int "only the complete line" 1 (List.length events)
  | Error msg -> Alcotest.failf "torn tail rejected: %s" msg);
  (* an unterminated but complete final line still decodes *)
  (match load_string (l1 ^ "\n" ^ l2) with
  | Ok events -> check_int "unterminated final line decodes" 2 (List.length events)
  | Error msg -> Alcotest.failf "unterminated final line rejected: %s" msg);
  (* garbage in the middle is still a hard error with a line number *)
  match load_string (l1 ^ "\nnot json\n" ^ l2 ^ "\n") with
  | Ok _ -> Alcotest.fail "mid-file garbage accepted"
  | Error msg ->
      check_bool "names the line" true
        (String.length msg >= 7 && String.sub msg 0 7 = "line 2:")

(* {2 Tail: incremental reads across appends} *)

let test_tail () =
  let path = Filename.temp_file "viz_tail" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Sys.remove path;
      let tail = Telemetry.Tail.create ~path in
      check_int "missing file: no events" 0 (List.length (Telemetry.Tail.poll tail));
      let oc = open_out_bin path in
      let l1 = line (Engine.Instrument.Step { interactions = 8; time = 1.0 }) in
      let l2 = line (Engine.Instrument.Correct_entered { interactions = 16; time = 2.0 }) in
      output_string oc (l1 ^ "\n");
      (* torn write: half of l2, no newline *)
      output_string oc (String.sub l2 0 10);
      flush oc;
      check_int "complete line only" 1 (List.length (Telemetry.Tail.poll tail));
      output_string oc (String.sub l2 10 (String.length l2 - 10));
      output_string oc "\n";
      flush oc;
      check_int "torn line completed" 1 (List.length (Telemetry.Tail.poll tail));
      output_string oc "garbage line\n";
      output_string oc (l1 ^ "\n");
      flush oc;
      check_int "garbage skipped, good line kept" 1 (List.length (Telemetry.Tail.poll tail));
      check_int "dropped counted" 1 (Telemetry.Tail.dropped tail);
      close_out oc;
      Telemetry.Tail.close tail)

(* {2 Span} *)

let test_span () =
  (* no ambient registry: wrap is transparent *)
  Telemetry.Metrics.uninstall ();
  check_int "no registry" 41 (Telemetry.Span.wrap "x" (fun () -> 41));
  let reg = Telemetry.Metrics.create () in
  Telemetry.Metrics.install reg;
  Fun.protect
    ~finally:(fun () -> Telemetry.Metrics.uninstall ())
    (fun () ->
      check_int "wrapped result" 42 (Telemetry.Span.wrap "probe" (fun () -> 42));
      check_int "one observation" 1
        (Array.length (Telemetry.Metrics.observations reg "span.probe"));
      (* records even when the body raises *)
      (try ignore (Telemetry.Span.wrap "probe" (fun () -> failwith "boom") : int)
       with Failure _ -> ());
      check_int "raised body still recorded" 2
        (Array.length (Telemetry.Metrics.observations reg "span.probe"));
      Telemetry.Span.record "manual" 0.25;
      let dump = Telemetry.Metrics.to_json reg in
      check_bool "span histograms in dump" true (Viz.Charts.has_spans dump))

(* {2 record_exec} *)

let test_record_exec () =
  Telemetry.Metrics.uninstall ();
  let protocol = Core.Silent_n_state.protocol ~n:8 in
  let rng = Prng.create ~seed:3 in
  let exec =
    Engine.Exec.make ~kind:Engine.Exec.Count ~protocol
      ~init:(Core.Scenarios.silent_uniform rng ~n:8) ~rng ()
  in
  let (_ : bool) = Engine.Exec.advance exec ~until:200 in
  (* without a registry: a no-op *)
  Telemetry.Metrics.record_exec exec;
  let reg = Telemetry.Metrics.create () in
  Telemetry.Metrics.install reg;
  Fun.protect
    ~finally:(fun () -> Telemetry.Metrics.uninstall ())
    (fun () ->
      Telemetry.Metrics.record_exec exec;
      let stats = Engine.Exec.stats exec in
      check_bool "engine exposes stats" true (stats <> []);
      List.iter
        (fun (name, v) ->
          match Telemetry.Metrics.counter_value reg ("engine." ^ name) with
          | Some got -> Alcotest.(check (float 1e-9)) ("engine." ^ name) v got
          | None -> Alcotest.failf "engine.%s missing from registry" name)
        stats)

(* {2 Dashboard snapshot} *)

let test_snapshot_json () =
  let events =
    [
      line (Engine.Instrument.Correct_entered { interactions = 8; time = 1.0 });
      line (Engine.Instrument.Fault { agents = 2; interactions = 16; time = 2.0 });
      line (Engine.Instrument.Correct_lost { interactions = 16; time = 2.0 });
      line (Engine.Instrument.Correct_entered { interactions = 40; time = 5.0 });
      line (Engine.Instrument.Step { interactions = 80; time = 10.0 });
    ]
  in
  let decoded =
    List.map
      (fun l ->
        match Telemetry.Events.of_line l with
        | Ok e -> e
        | Error msg -> Alcotest.fail msg)
      events
  in
  let summaries = Telemetry.Timeline.fold decoded in
  let json = Viz.Dashboard.snapshot_json ~dropped:3 ~path:"soak.jsonl" summaries in
  (* the wire format must round-trip through the encoder *)
  let s = Telemetry.Json.to_string json in
  (match Telemetry.Json.parse s with
  | Ok back -> check_bool "round-trips" true (Telemetry.Json.equal json back)
  | Error msg -> Alcotest.failf "snapshot does not parse back: %s" msg);
  let get k = Option.get (Telemetry.Json.member k json) in
  check_int "version" 1 (Option.get (Telemetry.Json.to_int (get "v")));
  check_int "dropped" 3 (Option.get (Telemetry.Json.to_int (get "dropped")));
  let agg = get "aggregate" in
  let agg_int k = Option.get (Option.bind (Telemetry.Json.member k agg) Telemetry.Json.to_int) in
  check_int "runs" 1 (agg_int "runs");
  check_int "bursts" 1 (agg_int "bursts");
  check_int "recovered" 1 (agg_int "recovered");
  let times = Option.get (Telemetry.Json.to_list (get "recovery_times")) in
  check_int "one recovery time" 1 (List.length times)

(* The snapshot the live dashboard streams, byte for byte, over the soak
   fixture the recovery CDF golden reads. *)
let test_golden_snapshot () =
  let summaries = Telemetry.Timeline.fold (load_events "golden/viz_soak.jsonl") in
  let got =
    Telemetry.Json.to_string (Viz.Dashboard.snapshot_json ~path:"viz_soak.jsonl" summaries) ^ "\n"
  in
  check_string "matches viz_soak.snapshot.json" (read_file "golden/viz_soak.snapshot.json") got

(* {2 HTTP + SSE smoke: client and server interleaved via poll} *)

let http_send ~port req =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let (_ : int) = Unix.write_substring fd req 0 (String.length req) in
  fd

let http_get ~port ~target =
  http_send ~port (Printf.sprintf "GET %s HTTP/1.1\r\nHost: x\r\n\r\n" target)

let read_available fd =
  let buf = Buffer.create 1024 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.select [ fd ] [] [] 0.0 with
    | [], _, _ -> Buffer.contents buf
    | _ -> (
        match Unix.read fd chunk 0 (Bytes.length chunk) with
        | 0 -> Buffer.contents buf
        | k ->
            Buffer.add_subbytes buf chunk 0 k;
            go ())
  in
  go ()

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let test_serve_smoke () =
  let path = Filename.temp_file "viz_serve" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc (line (Engine.Instrument.Correct_entered { interactions = 8; time = 1.0 }));
      output_string oc "\n";
      flush oc;
      let server = Viz.Serve.create ~port:0 ~path () in
      Fun.protect
        ~finally:(fun () -> Viz.Serve.close server)
        (fun () ->
          let port = Viz.Serve.port server in
          let poll () = Viz.Serve.poll ~timeout:0.05 server in
          (* the page *)
          let fd = http_get ~port ~target:"/" in
          poll ();
          poll ();
          let page = read_available fd in
          Unix.close fd;
          check_bool "200 page" true (contains ~sub:"200 OK" page);
          check_bool "self-contained dashboard" true (contains ~sub:"EventSource" page);
          (* a negative Content-Length is answered 400, and the server
             goes on serving *)
          let fd = http_send ~port "POST /submit HTTP/1.1\r\nContent-Length: -1\r\n\r\n" in
          poll ();
          poll ();
          let resp = read_available fd in
          Unix.close fd;
          check_bool "400" true (contains ~sub:"400 Bad Request" resp);
          (* a snapshot *)
          let fd = http_get ~port ~target:"/data.json" in
          poll ();
          poll ();
          let body = read_available fd in
          Unix.close fd;
          check_bool "snapshot has runs" true (contains ~sub:"\"runs\"" body);
          (* 404 *)
          let fd = http_get ~port ~target:"/nope" in
          poll ();
          poll ();
          let resp = read_available fd in
          Unix.close fd;
          check_bool "404" true (contains ~sub:"404" resp);
          (* SSE: initial frame immediately, another when the file grows *)
          let fd = http_get ~port ~target:"/events" in
          poll ();
          poll ();
          let first = read_available fd in
          check_bool "sse content type" true (contains ~sub:"text/event-stream" first);
          check_bool "initial frame" true (contains ~sub:"data: {" first);
          output_string oc
            (line (Engine.Instrument.Correct_lost { interactions = 24; time = 3.0 }));
          output_string oc "\n";
          flush oc;
          poll ();
          poll ();
          let update = read_available fd in
          check_bool "update frame on append" true (contains ~sub:"data: {" update);
          check_bool "update carries the loss" true (contains ~sub:"\"violations\":1" update);
          Unix.close fd;
          close_out oc))

(* A subscriber hanging up mid-stream surfaces as EPIPE on the server's
   next frame; that must drop only the dead client — the loop and the
   other subscribers keep going (the fleet board depends on this). *)
let test_sse_client_disconnect () =
  let frames = ref 0 in
  let source =
    {
      Viz.Serve.page = "<html>stub</html>";
      snapshot =
        (fun () ->
          incr frames;
          Printf.sprintf "{\"frame\":%d}" !frames);
      refresh = (fun () -> false);
      submit = None;
      shutdown = (fun () -> ());
    }
  in
  let server = Viz.Serve.of_source ~port:0 source in
  Fun.protect
    ~finally:(fun () -> Viz.Serve.close server)
    (fun () ->
      let port = Viz.Serve.port server in
      let poll () = Viz.Serve.poll ~timeout:0.05 server in
      let subscribe () =
        let fd = http_get ~port ~target:"/events" in
        poll ();
        poll ();
        let first = read_available fd in
        check_bool "subscribed" true (contains ~sub:"data: {" first);
        fd
      in
      let doomed = subscribe () in
      let survivor = subscribe () in
      (* the doomed client hangs up without a word *)
      Unix.close doomed;
      (* two frames: the first write into the dead socket may land in
         the kernel buffer; the second gets EPIPE/ECONNRESET, which must
         drop only that client *)
      Viz.Serve.notify server;
      poll ();
      Viz.Serve.notify server;
      poll ();
      let got = read_available survivor in
      check_bool "survivor keeps receiving after peer EPIPE" true (contains ~sub:"data: {" got);
      (* and the server still serves new requests *)
      let fd = http_get ~port ~target:"/data.json" in
      poll ();
      poll ();
      let body = read_available fd in
      Unix.close fd;
      Unix.close survivor;
      check_bool "server alive after disconnect" true (contains ~sub:"frame" body))

(* The soak dashboard and the fleet board share one page shell: each
   served page carries the theme toggle, the [$] helper and the
   EventSource wiring next to its own tiles. *)
let test_live_pages_share_shell () =
  List.iter
    (fun (name, page, tile) ->
      let source =
        {
          Viz.Serve.page;
          snapshot = (fun () -> "{}");
          refresh = (fun () -> false);
          submit = None;
          shutdown = (fun () -> ());
        }
      in
      let server = Viz.Serve.of_source ~port:0 source in
      Fun.protect
        ~finally:(fun () -> Viz.Serve.close server)
        (fun () ->
          let fd = http_get ~port:(Viz.Serve.port server) ~target:"/" in
          Viz.Serve.poll ~timeout:0.05 server;
          Viz.Serve.poll ~timeout:0.05 server;
          let served = read_available fd in
          Unix.close fd;
          List.iter
            (fun sub -> check_bool (Printf.sprintf "%s serves %S" name sub) true (contains ~sub served))
            [
              "200 OK";
              {|<button id="theme"|};
              {|$("theme").addEventListener("click"|};
              "const $ = id => document.getElementById(id);";
              {|new EventSource("/events")|};
              "function draw(s)";
              tile;
            ]))
    [
      ("dashboard", Viz.Dashboard.page ~path:"run.jsonl", {|id="t-avail"|});
      ("fleet board", Viz.Fleet_board.page ~title:"out", {|id="t-queue"|});
    ]

let suite =
  [
    Alcotest.test_case "scale: linear apply and ticks" `Quick test_scale_linear;
    Alcotest.test_case "scale: degenerate domains repair" `Quick test_scale_degenerate;
    Alcotest.test_case "scale: log apply, ticks, clamping" `Quick test_scale_log;
    Alcotest.test_case "scale: tick labels" `Quick test_tick_labels;
    Alcotest.test_case "plot: total on empty and degenerate input" `Quick test_empty_charts;
    Alcotest.test_case "plot: render is deterministic" `Quick test_render_deterministic;
    Alcotest.test_case "svg: text escaping" `Quick test_svg_escaping;
    Alcotest.test_case "golden: slope fit svg" `Quick test_golden_slope;
    Alcotest.test_case "golden: availability svg" `Quick test_golden_availability;
    Alcotest.test_case "golden: recovery cdf svg" `Quick test_golden_recovery_cdf;
    Alcotest.test_case "golden: phase profile svg" `Quick test_golden_phase_profile;
    Alcotest.test_case "timeline: truncated final line tolerated" `Quick
      test_load_truncated_tail;
    Alcotest.test_case "tail: incremental reads, torn writes, bad lines" `Quick test_tail;
    Alcotest.test_case "span: ambient timing histograms" `Quick test_span;
    Alcotest.test_case "metrics: record_exec publishes engine counters" `Quick
      test_record_exec;
    Alcotest.test_case "dashboard: snapshot json shape" `Quick test_snapshot_json;
    Alcotest.test_case "golden: dashboard snapshot json" `Quick test_golden_snapshot;
    Alcotest.test_case "serve: http routes and live sse updates" `Quick test_serve_smoke;
    Alcotest.test_case "serve: sse client disconnect drops only that client" `Quick
      test_sse_client_disconnect;
    Alcotest.test_case "serve: both live pages carry the shared shell" `Quick
      test_live_pages_share_shell;
  ]
