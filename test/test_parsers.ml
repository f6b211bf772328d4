(* Totality of the parsers of external input: on random strings, and on
   byte mutations and truncations of valid lines, each returns Ok or
   Error (for the HTTP request parser: a request, incomplete or
   malformed) and never raises. *)

(* Bytes biased towards the punctuation the parsers branch on. *)
let char_gen =
  QCheck.Gen.(
    frequency
      [
        (3, printable);
        (2, oneofl [ '{'; '}'; '['; ']'; '"'; ':'; ','; '\\'; '-'; '+'; '.'; 'e'; '0'; '9' ]);
        (1, char);
      ])

let random_gen = QCheck.Gen.(string_size ~gen:char_gen (int_bound 64))

(* One to four edits of a valid line: overwrite, delete or insert one
   byte, or truncate. *)
let mutant_gen valid =
  let edit s =
    QCheck.Gen.(
      let len = String.length s in
      int_bound len >>= fun pos ->
      char_gen >>= fun c ->
      int_bound 3 >|= function
      | 0 when pos < len -> String.mapi (fun i x -> if i = pos then c else x) s
      | 1 when pos < len -> String.sub s 0 pos ^ String.sub s (pos + 1) (len - pos - 1)
      | 2 -> String.sub s 0 pos ^ String.make 1 c ^ String.sub s pos (len - pos)
      | _ -> String.sub s 0 pos)
  in
  let rec edits k s =
    if k = 0 then QCheck.Gen.return s else QCheck.Gen.(edit s >>= edits (k - 1))
  in
  QCheck.Gen.(oneofl valid >>= fun s -> int_range 1 4 >>= fun k -> edits k s)

let total name parse s =
  match parse s with
  | Ok _ | Error _ -> true
  | exception e -> QCheck.Test.fail_reportf "%s raised %s on %S" name (Printexc.to_string e) s

(* A random-string property and a mutation property for one parser. *)
let properties ~name ~count ~valid parse =
  [
    QCheck.Test.make ~name:(name ^ " total on random strings") ~count
      (QCheck.make ~print:(Printf.sprintf "%S") random_gen)
      (total name parse);
    QCheck.Test.make ~name:(name ^ " total on mutated lines") ~count
      (QCheck.make ~print:(Printf.sprintf "%S") (mutant_gen valid))
      (total name parse);
  ]

let spec_lines =
  [
    "burst:1000,corrupt:0.2";
    "poisson:0.2,corrupt:0.1";
    "periodic:300,stuck:2:200";
    "poisson:0.05,kill-leader";
    "burst:0,duplicate-rank";
    "burst:100+poisson:0.01,stuck:4:2048";
  ]

let job_lines =
  [
    {|{"id":"a","n":8}|};
    {|{"id":"agent","protocol":"optimal","n":32,"seed":3,"trials":3}|};
    {|{"id":"count","protocol":"silent","n":64,"seed":4,"engine":"count","kernel":"compiled","scenario":"worst-case"}|};
    {|{"id":"soak","protocol":"silent","n":32,"seed":5,"engine":"count","scenario":"correct","chaos":"poisson:0.01,corrupt:0.2","horizon":600,"sla":200}|};
  ]

let event_lines =
  let run =
    Telemetry.Events.make_run ~engine:Engine.Exec.Count ~protocol:"Silent-n-state-SSR" ~n:8 ~seed:21
      ~trial:0 ()
  in
  List.map
    (fun e -> Telemetry.Json.to_string (Telemetry.Events.to_json ~run e))
    Engine.Instrument.
      [
        Step { interactions = 12; time = 1.5 };
        Correct_entered { interactions = 0; time = 0.0 };
        Correct_lost { interactions = 61; time = 7.625 };
        Silence { interactions = 61; time = 7.625 };
        Fault { agents = 2; interactions = 61; time = 7.625 };
      ]

let journal_lines =
  let job = Result.get_ok (Fleet.Job.of_line (List.nth job_lines 3)) in
  List.map
    (fun e -> Telemetry.Json.to_string (Fleet.Journal.entry_to_json e))
    Fleet.Journal.
      [
        Spec job;
        Start { id = "soak"; attempt = 1 };
        Retry { id = "soak"; attempt = 1; error = "worker killed"; delay_ticks = 4 };
        Done { id = "soak"; attempt = 2; converged = 1; trials = 1 };
        Fail { id = "agent"; attempts = 3; error = "deadline" };
        Shed { id = "agent"; reason = "duplicate id" };
        Drain { reason = "SIGTERM" };
      ]

let read_file path =
  (* dune runtest runs in _build/default/test; dune exec does not chdir *)
  let path = if Sys.file_exists path then path else Filename.concat "test" path in
  In_channel.with_open_bin path In_channel.input_all

let certificate_lines =
  List.map
    (fun key -> read_file (Printf.sprintf "golden/cert_%s_n4.json" key))
    [ "baseline"; "reset"; "reset_production"; "silent_n_state" ]

(* Journal replay over a file of one to eight lines, each valid, mutated
   or random. *)
let journal_replay =
  let line_gen =
    QCheck.Gen.(
      frequency [ (2, oneofl journal_lines); (3, mutant_gen journal_lines); (1, random_gen) ])
  in
  let path = Filename.temp_file "journal" ".jsonl" in
  at_exit (fun () -> Sys.remove path);
  QCheck.Test.make ~name:"Fleet.Journal.replay total on mutated files" ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list (Printf.sprintf "%S"))
       QCheck.Gen.(list_size (int_range 1 8) line_gen))
    (fun lines ->
      Out_channel.with_open_bin path (fun oc ->
          List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) lines);
      total "Fleet.Journal.replay" (fun path -> Fleet.Journal.replay ~path) path)

let http_requests =
  [
    "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
    "GET /data.json?t=1 HTTP/1.1\n\n";
    "POST /submit HTTP/1.1\r\nContent-Length: 16\r\n\r\n{\"id\":\"a\",\"n\":8}";
    "POST /submit HTTP/1.1\r\ncontent-length : 3\r\nHost: x\r\n\r\nabcdef";
  ]

(* [Viz.Serve.parse_request] over the bytes a client sent so far. *)
let http_request =
  let parse s =
    match Viz.Serve.parse_request s with
    | Viz.Serve.Request _ | Incomplete -> Ok ()
    | Malformed -> Error "malformed"
  in
  properties ~name:"Viz.Serve.parse_request" ~count:2000 ~valid:http_requests parse

let http_content_length () =
  let check label expected s =
    let got =
      match Viz.Serve.parse_request s with
      | Viz.Serve.Request (m, t, b) -> Printf.sprintf "%s %s %S" m t b
      | Incomplete -> "incomplete"
      | Malformed -> "malformed"
    in
    Alcotest.(check string) label expected got
  in
  let post len body = Printf.sprintf "POST /submit HTTP/1.1\r\nContent-Length: %s\r\n\r\n%s" len body in
  check "cut to length" "POST /submit \"ab\"" (post "2" "abc");
  check "body still arriving" "incomplete" (post "4" "abc");
  check "headers unfinished" "incomplete" "GET / HTTP/1.1\r\n";
  check "query dropped" "GET /data.json \"\"" (List.nth http_requests 1);
  check "negative" "malformed" (post "-1" "abc");
  check "signed" "malformed" (post "+2" "abc");
  check "not a number" "malformed" (post "two" "abc");
  check "empty" "malformed" (post "" "abc");
  check "overflow" "malformed" (post "99999999999999999999" "abc");
  check "hex" "malformed" (post "0x2" "abc")

let valid_lines_parse () =
  let ok name parse lines =
    List.iter
      (fun l ->
        match parse l with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "%s rejects its own valid line %S: %s" name l e)
      lines
  in
  ok "Chaos.Spec.parse" Chaos.Spec.parse spec_lines;
  ok "Fleet.Job.of_line" Fleet.Job.of_line job_lines;
  ok "Telemetry.Events.of_line" Telemetry.Events.of_line event_lines;
  ok "Certify.Certificate.of_string" Certify.Certificate.of_string certificate_lines;
  ok "Viz.Serve.parse_request"
    (fun s ->
      match Viz.Serve.parse_request s with
      | Viz.Serve.Request _ -> Ok ()
      | Incomplete | Malformed -> Error "not a complete request")
    http_requests;
  List.iter
    (fun l ->
      match Option.map Fleet.Journal.entry_of_json (Result.to_option (Telemetry.Json.parse l)) with
      | Some (Some _) -> ()
      | _ -> Alcotest.failf "journal entry %S does not read back" l)
    journal_lines

let suite =
  Alcotest.test_case "valid seed lines parse" `Quick valid_lines_parse
  :: Alcotest.test_case "Viz.Serve.parse_request: Content-Length" `Quick http_content_length
  :: List.map QCheck_alcotest.to_alcotest
       (properties ~name:"Chaos.Spec.parse" ~count:2000 ~valid:spec_lines Chaos.Spec.parse
       @ properties ~name:"Fleet.Job.of_line" ~count:2000 ~valid:job_lines Fleet.Job.of_line
       @ properties ~name:"Telemetry.Events.of_line" ~count:2000 ~valid:event_lines
           Telemetry.Events.of_line
       @ properties ~name:"Certify.Certificate.of_string" ~count:1000 ~valid:certificate_lines
           Certify.Certificate.of_string
       @ http_request @ [ journal_replay ])
