(* Tests for the telemetry subsystem: the hand-rolled JSON layer, the
   JSONL event schema (encode/decode round trips, including through the
   printed text), sinks, the metrics registry, manifests, and the
   timeline fold behind bin/timeline. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* JSON encode/parse round trip *)

let test_json_atoms () =
  let roundtrip j = Telemetry.Json.parse (Telemetry.Json.to_string j) in
  List.iter
    (fun j ->
      match roundtrip j with
      | Ok j' -> check_bool (Telemetry.Json.to_string j) true (Telemetry.Json.equal j j')
      | Error msg -> Alcotest.failf "parse failed on %s: %s" (Telemetry.Json.to_string j) msg)
    Telemetry.Json.
      [
        Null;
        Bool true;
        Bool false;
        Int 0;
        Int (-42);
        Int max_int;
        Float 0.5;
        Float (-1.25e30);
        String "";
        String "plain";
        String "esc \" \\ \n \t \x01 \xe2\x82\xac";
        List [];
        List [ Int 1; String "two"; Null ];
        Obj [];
        Obj [ ("a", Int 1); ("b", Obj [ ("nested", List [ Bool false ]) ]) ];
      ]

let test_json_nonfinite_floats () =
  (* JSON has no NaN/inf literals; the encoder degrades them to null
     rather than emitting unparseable text. *)
  check_string "nan" "null" (Telemetry.Json.to_string (Telemetry.Json.Float Float.nan));
  check_string "inf" "null" (Telemetry.Json.to_string (Telemetry.Json.Float Float.infinity))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Telemetry.Json.parse s with
      | Ok _ -> Alcotest.failf "expected a parse error on %S" s
      | Error _ -> ())
    [ ""; "{"; "[1,"; "tru"; "\"unterminated"; "{\"a\":}"; "1 2"; "{'a':1}" ]

let test_json_unicode_escape () =
  match Telemetry.Json.parse {|"é😀"|} with
  | Ok (Telemetry.Json.String s) -> check_string "decoded UTF-8" "\xc3\xa9\xf0\x9f\x98\x80" s
  | Ok _ -> Alcotest.fail "expected a string"
  | Error msg -> Alcotest.failf "parse failed: %s" msg

(* Random JSON values: depth-bounded, with printable-ASCII and
   multi-byte strings. *)
let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [
        return Telemetry.Json.Null;
        map (fun b -> Telemetry.Json.Bool b) bool;
        map (fun i -> Telemetry.Json.Int i) int;
        map (fun f -> Telemetry.Json.Float f) (float_bound_inclusive 1e9);
        map (fun s -> Telemetry.Json.String s) (string_size ~gen:printable (int_bound 12));
      ]
  in
  let key = string_size ~gen:(char_range 'a' 'z') (int_range 1 6) in
  fix
    (fun self depth ->
      if depth = 0 then scalar
      else
        frequency
          [
            (3, scalar);
            (1, map (fun l -> Telemetry.Json.List l) (list_size (int_bound 4) (self (depth - 1))));
            ( 1,
              map
                (fun kvs ->
                  (* object keys must be distinct for equality to be
                     well-defined *)
                  let seen = Hashtbl.create 8 in
                  Telemetry.Json.Obj
                    (List.filter
                       (fun (k, _) ->
                         if Hashtbl.mem seen k then false
                         else begin
                           Hashtbl.add seen k ();
                           true
                         end)
                       kvs))
                (list_size (int_bound 4) (pair key (self (depth - 1)))) );
          ])
    2

let qcheck_json_roundtrip =
  QCheck.Test.make ~name:"JSON print/parse round trip" ~count:500
    (QCheck.make ~print:Telemetry.Json.to_string json_gen) (fun j ->
      match Telemetry.Json.parse (Telemetry.Json.to_string j) with
      | Ok j' -> Telemetry.Json.equal j j'
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Event schema round trips *)

let run_gen =
  let open QCheck.Gen in
  let* engine = oneofl [ Engine.Exec.Agent; Engine.Exec.Count ] in
  let* protocol = oneofl [ "Silent-n-state-SSR"; "Optimal-Silent-SSR"; "X" ] in
  let* n = int_range 2 4096 in
  let* seed = int_range 0 1_000_000 in
  let* trial = opt (int_bound 64) in
  return (Telemetry.Events.make_run ~engine ~protocol ~n ~seed ?trial ())

let event_gen =
  let open QCheck.Gen in
  let* interactions = int_bound 1_000_000_000 in
  let* time = float_bound_inclusive 1e6 in
  oneof
    [
      return (Engine.Instrument.Step { interactions; time });
      return (Engine.Instrument.Correct_entered { interactions; time });
      return (Engine.Instrument.Correct_lost { interactions; time });
      return (Engine.Instrument.Silence { interactions; time });
      map
        (fun agents -> Engine.Instrument.Fault { agents; interactions; time })
        (int_range 1 4096);
    ]

let qcheck_event_roundtrip =
  QCheck.Test.make ~name:"event JSONL encode/decode round trip" ~count:500
    (QCheck.make
       ~print:(fun (run, event) ->
         Telemetry.Json.to_string (Telemetry.Events.to_json ~run event))
       QCheck.Gen.(pair run_gen event_gen))
    (fun (run, event) ->
      let line = Telemetry.Json.to_string (Telemetry.Events.to_json ~run event) in
      match Telemetry.Events.of_line line with
      | Ok (run', event') -> run' = run && event' = event
      | Error _ -> false)

let test_event_decode_rejects () =
  let run =
    Telemetry.Events.make_run ~engine:Engine.Exec.Agent ~protocol:"P" ~n:4 ~seed:1 ()
  in
  let base = Telemetry.Events.to_json ~run (Engine.Instrument.Step { interactions = 3; time = 0.75 }) in
  let tamper f =
    match base with
    | Telemetry.Json.Obj kvs -> Telemetry.Json.Obj (f kvs)
    | _ -> Alcotest.fail "event did not encode as an object"
  in
  let expect_error name json =
    match Telemetry.Events.of_json json with
    | Ok _ -> Alcotest.failf "%s: decode should have failed" name
    | Error _ -> ()
  in
  expect_error "future version"
    (tamper (List.map (fun (k, v) -> if k = "v" then (k, Telemetry.Json.Int 99) else (k, v))));
  expect_error "unknown type"
    (tamper
       (List.map (fun (k, v) -> if k = "type" then (k, Telemetry.Json.String "warp") else (k, v))));
  expect_error "missing field" (tamper (List.filter (fun (k, _) -> k <> "interactions")));
  expect_error "fault without agents"
    (tamper
       (List.map (fun (k, v) -> if k = "type" then (k, Telemetry.Json.String "fault") else (k, v))))

(* ------------------------------------------------------------------ *)
(* Sinks *)

let test_sink_buffer () =
  let sink = Telemetry.Sink.buffer () in
  check_int "fresh sink is empty" 0 (Telemetry.Sink.lines sink);
  Telemetry.Sink.write sink (Telemetry.Json.Int 1);
  Telemetry.Sink.write_line sink "{\"raw\":true}";
  check_int "two lines" 2 (Telemetry.Sink.lines sink);
  check_string "contents" "1\n{\"raw\":true}\n" (Telemetry.Sink.contents sink);
  Telemetry.Sink.close sink;
  Telemetry.Sink.close sink;
  (* contents survive close; writes after close are dropped *)
  Telemetry.Sink.write sink (Telemetry.Json.Int 2);
  check_int "closed sink drops writes" 2 (Telemetry.Sink.lines sink)

let test_sink_file () =
  let path = Filename.temp_file "telemetry_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let sink = Telemetry.Sink.file path in
      Telemetry.Sink.write sink (Telemetry.Json.Obj [ ("a", Telemetry.Json.Int 1) ]);
      Telemetry.Sink.write sink (Telemetry.Json.Obj [ ("a", Telemetry.Json.Int 2) ]);
      Alcotest.check_raises "no contents on a file sink"
        (Invalid_argument "Telemetry.Sink.contents: file sink") (fun () ->
          ignore (Telemetry.Sink.contents sink));
      Telemetry.Sink.close sink;
      let ic = open_in path in
      let l1 = input_line ic in
      let l2 = input_line ic in
      let eof = try ignore (input_line ic); false with End_of_file -> true in
      close_in ic;
      check_string "line 1" "{\"a\":1}" l1;
      check_string "line 2" "{\"a\":2}" l2;
      check_bool "exactly two lines" true eof)

let test_sink_flush_visibility () =
  let path = Filename.temp_file "telemetry_flush" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let read () =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let sink = Telemetry.Sink.file path in
      Telemetry.Sink.write_line sink "{\"a\":1}";
      Telemetry.Sink.flush sink;
      check_string "flush makes the line durable before close" "{\"a\":1}\n" (read ());
      Telemetry.Sink.write_line sink "{\"a\":2}";
      Telemetry.Sink.flush_all ();
      check_string "flush_all reaches open sinks" "{\"a\":1}\n{\"a\":2}\n" (read ());
      Telemetry.Sink.close sink;
      (* append mode continues an existing file instead of truncating *)
      let sink = Telemetry.Sink.file ~append:true ~autoflush:true path in
      Telemetry.Sink.write_line sink "{\"a\":3}";
      check_string "autoflush append" "{\"a\":1}\n{\"a\":2}\n{\"a\":3}\n" (read ());
      Telemetry.Sink.close sink)

(* The mid-write kill scenarios run in a helper process
   (sink_crash_child.ml) spawned with create_process: Unix.fork is
   unavailable once the pool suites have created domains. *)
let crash_child_exe () =
  let candidates = [ "sink_crash_child.exe"; Filename.concat "test" "sink_crash_child.exe" ] in
  match List.find_opt Sys.file_exists candidates with
  (* absolute: create_process does a PATH search on bare names *)
  | Some exe -> Filename.concat (Sys.getcwd ()) exe
  | None -> Alcotest.fail "sink_crash_child.exe not found (dune deps)"

(* A child writes journal-style through an autoflush sink, then SIGKILLs
   itself mid-record. Every complete line must be durable; the torn tail
   must be undecodable-but-tolerable (the shape Tail/Timeline/
   Journal.replay all drop). *)
let test_sink_midwrite_kill () =
  let path = Filename.temp_file "telemetry_kill" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let exe = crash_child_exe () in
      let pid =
        Unix.create_process exe [| exe; "kill"; path |] Unix.stdin Unix.stdout Unix.stderr
      in
      let _, status = Unix.waitpid [] pid in
      check_bool "child died by SIGKILL" true (status = Unix.WSIGNALED Sys.sigkill);
      let ic = open_in_bin path in
      let contents =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      match String.split_on_char '\n' contents with
      | lines when List.length lines = 51 ->
          (* 50 complete lines + the torn unterminated tail *)
          List.iteri
            (fun i line ->
              if i < 50 then
                match Telemetry.Json.parse line with
                | Ok j ->
                    check_bool
                      (Printf.sprintf "line %d durable and ordered" (i + 1))
                      true
                      (Telemetry.Json.member "i" j = Some (Telemetry.Json.Int (i + 1)))
                | Error msg -> Alcotest.failf "complete line %d lost/corrupt: %s" (i + 1) msg
              else
                check_bool "torn tail undecodable" true
                  (Result.is_error (Telemetry.Json.parse line)))
            lines
      | lines ->
          Alcotest.failf "expected 50 durable lines + torn tail, got %d segments"
            (List.length lines))

(* SIGTERM with only the crash-flush hardening installed: buffered
   (non-autoflush) lines must still reach disk before the process dies
   with the signal's default disposition. *)
let test_sink_crash_flush_on_sigterm () =
  let path = Filename.temp_file "telemetry_crash" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let exe = crash_child_exe () in
      let r, w = Unix.pipe () in
      let pid = Unix.create_process exe [| exe; "term"; path |] Unix.stdin w Unix.stderr in
      Unix.close w;
      (* the child prints "ready" once its lines sit in the channel
         buffer and it is waiting to be shot *)
      ignore (Unix.read r (Bytes.create 5) 0 5);
      Unix.close r;
      Unix.kill pid Sys.sigterm;
      let _, status = Unix.waitpid [] pid in
      check_bool "child died by SIGTERM (default disposition re-delivered)" true
        (status = Unix.WSIGNALED Sys.sigterm);
      let ic = open_in path in
      let count = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr count
         done
       with End_of_file -> close_in ic);
      check_int "buffered lines flushed by the signal handler" 50 !count)

(* ------------------------------------------------------------------ *)
(* Metrics registry *)

let test_metrics_registry () =
  let reg = Telemetry.Metrics.create () in
  check_bool "unknown counter" true (Telemetry.Metrics.counter_value reg "c" = None);
  Telemetry.Metrics.incr reg "c";
  Telemetry.Metrics.incr reg "c";
  Telemetry.Metrics.add reg "c" 3.0;
  check_bool "counter accumulates" true (Telemetry.Metrics.counter_value reg "c" = Some 5.0);
  Telemetry.Metrics.set reg "g" 1.5;
  Telemetry.Metrics.set reg "g" 2.5;
  check_bool "gauge keeps last" true (Telemetry.Metrics.gauge_value reg "g" = Some 2.5);
  Telemetry.Metrics.observe reg "h" 1.0;
  Telemetry.Metrics.observe reg "h" 3.0;
  Alcotest.(check (array (float 1e-9)))
    "observations in order" [| 1.0; 3.0 |]
    (Telemetry.Metrics.observations reg "h")

let test_metrics_json_parses_back () =
  let reg = Telemetry.Metrics.create () in
  Telemetry.Metrics.add reg "zeta" 2.0;
  Telemetry.Metrics.add reg "alpha" 7.0;
  Telemetry.Metrics.set reg "util" 0.75;
  for i = 1 to 10 do
    Telemetry.Metrics.observe reg "wall" (float_of_int i)
  done;
  let text = Telemetry.Json.to_string (Telemetry.Metrics.to_json reg) in
  match Telemetry.Json.parse text with
  | Error msg -> Alcotest.failf "metrics dump does not parse: %s" msg
  | Ok json ->
      let member name = Option.get (Telemetry.Json.member name json) in
      check_bool "versioned" true
        (Telemetry.Json.to_int (Telemetry.Json.member "v" json |> Option.get) = Some 1);
      (match member "counters" with
      | Telemetry.Json.Obj kvs ->
          Alcotest.(check (list string))
            "counter names sorted" [ "alpha"; "zeta" ] (List.map fst kvs)
      | _ -> Alcotest.fail "counters is not an object");
      let hist = Option.get (Telemetry.Json.member "histograms" json) in
      let wall = Option.get (Telemetry.Json.member "wall" hist) in
      let value name = Option.get (Telemetry.Json.to_float (Option.get (Telemetry.Json.member name wall))) in
      check_int "count" 10 (int_of_float (value "count"));
      Alcotest.(check (float 1e-9)) "mean" 5.5 (value "mean");
      Alcotest.(check (float 1e-9)) "total" 55.0 (value "total")

let test_metrics_ambient () =
  check_bool "no ambient registry by default" true (Telemetry.Metrics.ambient () = None);
  let reg = Telemetry.Metrics.create () in
  Telemetry.Metrics.install reg;
  Fun.protect
    ~finally:(fun () -> Telemetry.Metrics.uninstall ())
    (fun () ->
      (match Telemetry.Metrics.ambient () with
      | Some r -> Telemetry.Metrics.incr r "seen"
      | None -> Alcotest.fail "ambient registry not visible");
      check_bool "same registry" true (Telemetry.Metrics.counter_value reg "seen" = Some 1.0));
  check_bool "uninstalled" true (Telemetry.Metrics.ambient () = None)

(* ------------------------------------------------------------------ *)
(* Manifests *)

let test_manifest_json () =
  let m =
    Telemetry.Manifest.make ~run:"ssr_sim" ~protocol:"Silent-n-state-SSR" ~engine:"count" ~n:256
      ~seed:7 ~trials:10 ~jobs:4
      ~params:[ ("scenario", Telemetry.Json.String "worst-case") ]
      ~wall_clock_s:1.25 ()
  in
  let text = Telemetry.Json.to_string (Telemetry.Manifest.to_json m) in
  match Telemetry.Json.parse text with
  | Error msg -> Alcotest.failf "manifest does not parse: %s" msg
  | Ok json ->
      let str name =
        Option.get (Telemetry.Json.to_string_opt (Option.get (Telemetry.Json.member name json)))
      in
      let int name =
        Option.get (Telemetry.Json.to_int (Option.get (Telemetry.Json.member name json)))
      in
      check_string "kind" "manifest" (str "kind");
      check_string "run" "ssr_sim" (str "run");
      check_int "v" 1 (int "v");
      check_int "events_schema" Telemetry.Events.version (int "events_schema");
      check_int "trials" 10 (int "trials");
      check_int "jobs" 4 (int "jobs");
      check_bool "argv recorded" true (Telemetry.Json.member "argv" json <> None);
      let params = Option.get (Telemetry.Json.member "params" json) in
      check_string "params.scenario" "worst-case"
        (Option.get
           (Telemetry.Json.to_string_opt (Option.get (Telemetry.Json.member "scenario" params))))

(* ------------------------------------------------------------------ *)
(* Timeline fold *)

let mk_run ?trial () =
  Telemetry.Events.make_run ~engine:Engine.Exec.Agent ~protocol:"P" ~n:8 ~seed:1 ?trial ()

let step ~at i = Engine.Instrument.Step { interactions = i; time = at }
let entered ~at i = Engine.Instrument.Correct_entered { interactions = i; time = at }
let lost ~at i = Engine.Instrument.Correct_lost { interactions = i; time = at }
let fault ~at ?(agents = 1) i = Engine.Instrument.Fault { agents; interactions = i; time = at }
let silence ~at i = Engine.Instrument.Silence { interactions = i; time = at }

let test_timeline_recovery () =
  let run = mk_run () in
  let events =
    List.map
      (fun e -> (run, e))
      [
        step ~at:0.5 4;
        entered ~at:1.0 8;
        (* burst 1: two faults back to back, breaks correctness,
           recovers at t=5.0 *)
        fault ~at:2.0 16;
        fault ~at:2.5 ~agents:3 20;
        lost ~at:2.6 21;
        entered ~at:5.0 40;
        (* burst 2: absorbed without a correctness loss *)
        fault ~at:6.0 48;
        entered ~at:6.25 50;
        silence ~at:7.0 56;
      ]
  in
  match Telemetry.Timeline.fold events with
  | [ s ] ->
      check_int "events" 9 s.Telemetry.Timeline.events;
      check_int "steps" 1 s.Telemetry.Timeline.steps;
      check_bool "first correct" true (s.Telemetry.Timeline.first_correct_at = Some 1.0);
      check_bool "last correct" true (s.Telemetry.Timeline.last_correct_at = Some 6.25);
      check_int "violations" 1 s.Telemetry.Timeline.violations;
      check_bool "silent" true (s.Telemetry.Timeline.silent_at = Some 7.0);
      (match s.Telemetry.Timeline.bursts with
      | [ b1; b2 ] ->
          check_int "burst1 faults" 2 b1.Telemetry.Timeline.faults;
          check_int "burst1 agents" 4 b1.Telemetry.Timeline.agents;
          check_bool "burst1 broke" true b1.Telemetry.Timeline.broke;
          Alcotest.(check (option (float 1e-9)))
            "burst1 recovery = recovered - last fault" (Some 2.5)
            (Telemetry.Timeline.recovery_time b1);
          check_bool "burst2 absorbed" false b2.Telemetry.Timeline.broke;
          Alcotest.(check (option (float 1e-9)))
            "burst2 recovery" (Some 0.25)
            (Telemetry.Timeline.recovery_time b2)
      | bursts -> Alcotest.failf "expected 2 bursts, got %d" (List.length bursts))
  | summaries -> Alcotest.failf "expected 1 summary, got %d" (List.length summaries)

let test_timeline_open_burst_and_interleaving () =
  let r0 = mk_run ~trial:0 () and r1 = mk_run ~trial:1 () in
  let events =
    [
      (r0, entered ~at:1.0 8);
      (r1, entered ~at:1.5 12);
      (* r0's fault burst never recovers before the stream ends *)
      (r0, fault ~at:2.0 16);
      (r1, step ~at:2.0 16);
      (r0, lost ~at:2.1 17);
    ]
  in
  match Telemetry.Timeline.fold events with
  | [ s0; s1 ] ->
      check_string "first-appearance order" r0.Telemetry.Events.id
        s0.Telemetry.Timeline.run.Telemetry.Events.id;
      (match s0.Telemetry.Timeline.bursts with
      | [ b ] ->
          check_bool "broke" true b.Telemetry.Timeline.broke;
          check_bool "unrecovered" true (b.Telemetry.Timeline.recovered_at = None);
          check_bool "no recovery time" true (Telemetry.Timeline.recovery_time b = None)
      | bursts -> Alcotest.failf "expected 1 burst, got %d" (List.length bursts));
      check_int "r1 saw no burst" 0 (List.length s1.Telemetry.Timeline.bursts);
      check_int "r1 steps" 1 s1.Telemetry.Timeline.steps
  | summaries -> Alcotest.failf "expected 2 summaries, got %d" (List.length summaries)

(* n = 8, so a parallel-time budget B is ⌈8·B⌉ interactions. A burst
   whose last fault is at interaction 16 recovers at 57 (41 interactions,
   5.125 time units), and one more stays broken to the end. *)
let test_timeline_sla_interaction_clock () =
  let to_i = Telemetry.Timeline.to_interactions in
  check_int "5310.5 interactions round up" 5311 (to_i ~n:32 165.953125);
  check_int "at least one interaction" 1 (to_i ~n:8 1e-9);
  check_int "saturates past the int range" max_int (to_i ~n:8 1e300);
  let run = mk_run () in
  let events =
    List.map
      (fun e -> (run, e))
      [
        entered ~at:1.0 8;
        fault ~at:2.0 16;
        lost ~at:2.125 17;
        entered ~at:7.125 57;
        fault ~at:8.0 64;
        lost ~at:8.125 65;
      ]
  in
  let s = List.hd (Telemetry.Timeline.fold events) in
  List.iter
    (fun (budget, whole, misses) ->
      let v = Telemetry.Timeline.check_sla ~budget s in
      let label what = Printf.sprintf "budget %g: %s" budget what in
      check_int (label "interactions") whole v.Telemetry.Timeline.sla_budget;
      check_int (label "broke") 2 v.Telemetry.Timeline.broke;
      check_int (label "misses") misses v.Telemetry.Timeline.sla_misses;
      check_int (label "censored") 1 v.Telemetry.Timeline.sla_censored;
      check_bool (label "not met") false v.Telemetry.Timeline.sla_met)
    [ (5.06, 41, 0); (5.125, 41, 0); (4.99, 40, 1) ];
  let t = Telemetry.Timeline.Tally.of_summaries ~budget:4.99 [ s; s ] in
  check_int "pooled broke" 4 t.Telemetry.Timeline.Tally.broke;
  check_int "pooled misses" 2 t.Telemetry.Timeline.Tally.misses;
  check_int "pooled censored" 2 t.Telemetry.Timeline.Tally.censored;
  check_int "no run met" 0 t.Telemetry.Timeline.Tally.met;
  check_bool "recovery times, runs in order" true
    (t.Telemetry.Timeline.Tally.recovered = [ 5.125; 5.125 ])

let test_timeline_load_rejects_garbage () =
  let text = "{\"v\":1}\n" in
  let path = Filename.temp_file "telemetry_test" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      let ic = open_in path in
      let result = Telemetry.Timeline.load ic in
      close_in ic;
      match result with
      | Ok _ -> Alcotest.fail "expected load to fail"
      | Error msg -> check_bool "names the line" true (String.length msg > 0))

(* ------------------------------------------------------------------ *)
(* End to end: both engines stream decodable events with the same
   landmark semantics through an attached sink *)

let landmark_stream ~kind =
  let n = 16 in
  let protocol = Core.Silent_n_state.protocol ~n in
  let rng = Prng.create ~seed:5 in
  let init = Core.Scenarios.silent_uniform (Prng.create ~seed:6) ~n in
  let exec = Engine.Exec.make ~kind ~protocol ~init ~rng () in
  let run = Telemetry.Events.make_run ~engine:kind ~protocol:"Silent-n-state-SSR" ~n ~seed:5 () in
  let sink = Telemetry.Sink.buffer () in
  Telemetry.Events.attach ~step_interval:8 exec ~run sink;
  ignore
    (Engine.Runner.run_to_stability ~task:Engine.Runner.Ranking
       ~max_interactions:(100 * n * n * n)
       ~confirm_interactions:(Engine.Runner.default_confirm ~n)
       exec);
  let lines =
    String.split_on_char '\n' (Telemetry.Sink.contents sink)
    |> List.filter (fun l -> l <> "")
  in
  List.map
    (fun line ->
      match Telemetry.Events.of_line line with
      | Ok decoded -> decoded
      | Error msg -> Alcotest.failf "undecodable line %S: %s" line msg)
    lines

let test_attach_both_engines () =
  List.iter
    (fun kind ->
      let name = Engine.Exec.kind_to_string kind in
      let events = landmark_stream ~kind in
      check_bool (name ^ " produced events") true (events <> []);
      let count p = List.length (List.filter (fun (_, e) -> p e) events) in
      check_int
        (name ^ " enters correctness exactly once")
        1
        (count (function Engine.Instrument.Correct_entered _ -> true | _ -> false));
      check_int (name ^ " no losses") 0
        (count (function Engine.Instrument.Correct_lost _ -> true | _ -> false));
      check_int (name ^ " no faults") 0
        (count (function Engine.Instrument.Fault _ -> true | _ -> false)))
    [ Engine.Exec.Agent; Engine.Exec.Count ]

let test_attach_rejects_bad_interval () =
  let n = 4 in
  let protocol = Core.Silent_n_state.protocol ~n in
  let rng = Prng.create ~seed:1 in
  let exec =
    Engine.Exec.make ~kind:Engine.Exec.Agent ~protocol
      ~init:(Core.Scenarios.silent_correct ~n) ~rng ()
  in
  let run = Telemetry.Events.make_run ~engine:Engine.Exec.Agent ~protocol:"P" ~n ~seed:1 () in
  Alcotest.check_raises "step_interval must be positive"
    (Invalid_argument "Telemetry.Events.attach: step_interval must be positive") (fun () ->
      Telemetry.Events.attach ~step_interval:0 exec ~run (Telemetry.Sink.buffer ()))

let suite =
  [
    Alcotest.test_case "json: atom round trips" `Quick test_json_atoms;
    Alcotest.test_case "json: non-finite floats encode as null" `Quick
      test_json_nonfinite_floats;
    Alcotest.test_case "json: malformed inputs rejected" `Quick test_json_parse_errors;
    Alcotest.test_case "json: unicode escapes decode to UTF-8" `Quick test_json_unicode_escape;
    QCheck_alcotest.to_alcotest qcheck_json_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_event_roundtrip;
    Alcotest.test_case "events: decoder rejects tampered records" `Quick
      test_event_decode_rejects;
    Alcotest.test_case "sink: buffer semantics" `Quick test_sink_buffer;
    Alcotest.test_case "sink: file writes JSONL" `Quick test_sink_file;
    Alcotest.test_case "sink: flush and flush_all make lines durable" `Quick
      test_sink_flush_visibility;
    Alcotest.test_case "sink: mid-write SIGKILL loses at most the torn tail" `Quick
      test_sink_midwrite_kill;
    Alcotest.test_case "sink: crash flush drains buffers on SIGTERM" `Quick
      test_sink_crash_flush_on_sigterm;
    Alcotest.test_case "metrics: counters, gauges, histograms" `Quick test_metrics_registry;
    Alcotest.test_case "metrics: dump parses back, sorted" `Quick test_metrics_json_parses_back;
    Alcotest.test_case "metrics: ambient install/uninstall" `Quick test_metrics_ambient;
    Alcotest.test_case "manifest: versioned and complete" `Quick test_manifest_json;
    Alcotest.test_case "timeline: fault bursts and recovery times" `Quick
      test_timeline_recovery;
    Alcotest.test_case "timeline: interleaved runs, unrecovered burst" `Quick
      test_timeline_open_burst_and_interleaving;
    Alcotest.test_case "timeline: SLA judged on the interaction clock" `Quick
      test_timeline_sla_interaction_clock;
    Alcotest.test_case "timeline: load rejects undecodable lines" `Quick
      test_timeline_load_rejects_garbage;
    Alcotest.test_case "attach: both engines stream decodable landmarks" `Quick
      test_attach_both_engines;
    Alcotest.test_case "attach: rejects non-positive step interval" `Quick
      test_attach_rejects_bad_interval;
  ]
