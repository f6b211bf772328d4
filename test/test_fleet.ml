(* The supervised soak-fleet orchestrator: supervision capture, job-spec
   validation, the bounded fair admission queue, crash-safe journal
   replay, and the end-to-end robustness contract — every job terminal
   with exactly-once outputs, and per-job events files bit-identical
   across worker counts, injected kills, and drain/resume cycles. *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* A fresh directory per fleet run; Orchestrator.create makes it. *)
let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let marker = Filename.temp_file "fleet_test" (Printf.sprintf "_%d" !counter) in
    Sys.remove marker;
    marker

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

(* {2 Supervise} *)

let test_supervise () =
  (match Fleet.Supervise.run (fun () -> 41 + 1) with
  | Ok v -> check_int "value through" 42 v
  | Error f -> Alcotest.failf "ok thunk failed: %s" f.Fleet.Supervise.error);
  (match Fleet.Supervise.run (fun () -> failwith "boom") with
  | Ok _ -> Alcotest.fail "raise not captured"
  | Error f -> check_bool "error text" true (contains ~sub:"boom" f.Fleet.Supervise.error));
  check_string "clean summary" "3 of 3 succeeded" (Fleet.Supervise.summary ~total:3 []);
  let s =
    Fleet.Supervise.summary ~total:3
      [ ("trial 1", { Fleet.Supervise.error = "Failure(\"x\")"; backtrace = "" }) ]
  in
  check_bool "failure summary counts" true (contains ~sub:"2 of 3 succeeded, 1 failed" s);
  check_bool "failure summary names" true (contains ~sub:"trial 1" s)

(* {2 Job specs} *)

let job ?(protocol = "silent") ?(trials = 1) ?(retries = 2) ?chaos ?horizon ?sla ?deadline
    ?group ~n ~seed id =
  match
    Fleet.Job.make ~id ~protocol ~n ~seed ~trials ?chaos ?horizon ?sla ?deadline ~retries
      ?group ()
  with
  | Ok j -> j
  | Error msg -> Alcotest.failf "job %s invalid: %s" id msg

let test_job_defaults_and_roundtrip () =
  (match Fleet.Job.of_line {|{"id":"a","n":8}|} with
  | Error msg -> Alcotest.failf "minimal spec rejected: %s" msg
  | Ok j ->
      check_string "default protocol" "optimal" j.Fleet.Job.protocol;
      check_int "default trials" 1 j.Fleet.Job.trials;
      check_int "default retries" 2 j.Fleet.Job.retries;
      check_string "group defaults to protocol" "optimal" j.Fleet.Job.group;
      check_bool "no chaos" true (j.Fleet.Job.chaos = None));
  let j =
    job "rt" ~protocol:"sublinear" ~n:64 ~seed:9 ~trials:3
      ~chaos:"periodic:2000,corrupt:0.1" ~horizon:50.0 ~sla:25.0 ~group:"g1"
  in
  match Fleet.Job.of_json (Fleet.Job.to_json j) with
  | Ok j' -> check_bool "canonical encoding round-trips" true (j = j')
  | Error msg -> Alcotest.failf "round trip failed: %s" msg

let test_job_validation () =
  let rejects label line =
    match Fleet.Job.of_line line with
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error _ -> ()
  in
  rejects "missing id" {|{"n":8}|};
  rejects "bad id chars" {|{"id":"a b","n":8}|};
  rejects "unknown protocol" {|{"id":"a","protocol":"warp","n":8}|};
  rejects "n too small" {|{"id":"a","n":1}|};
  rejects "count engine on randomized protocol"
    {|{"id":"a","protocol":"sublinear","n":8,"engine":"count"}|};
  rejects "bad chaos spec" {|{"id":"a","n":8,"chaos":"nope"}|};
  rejects "unknown scenario" {|{"id":"a","n":8,"scenario":"bogus"}|};
  rejects "scenario of another protocol" {|{"id":"a","protocol":"silent","n":8,"scenario":"starved"}|};
  rejects "compiled kernel on randomized protocol"
    {|{"id":"a","protocol":"sublinear","n":8,"kernel":"compiled"}|};
  (match Fleet.Job.of_line {|{"id":"a","n":8,"scenario":"bogus"}|} with
  | Error msg -> check_bool "unknown scenario lists the catalogue" true (contains ~sub:"mid-reset" msg)
  | Ok _ -> ());
  rejects "horizon without chaos" {|{"id":"a","n":8,"horizon":10.0}|};
  (* a time span must be finite and its interaction count must fit an int *)
  List.iter
    (fun (label, x) ->
      let made ?horizon ?sla () =
        Fleet.Job.make ~id:"a" ~protocol:"silent" ~n:8 ~seed:1 ~chaos:"burst:5,corrupt:0.1"
          ?horizon ?sla ()
      in
      check_bool ("horizon " ^ label ^ " rejected") true (Result.is_error (made ~horizon:x ()));
      check_bool ("sla " ^ label ^ " rejected") true (Result.is_error (made ~sla:x ())))
    [ ("nan", Float.nan); ("inf", Float.infinity); ("1e308", 1e308); ("1e18 at n = 8", 1e18) ];
  rejects "not json" {|{"id":|}

(* {2 Admission: bounded, fair} *)

let test_admission_backpressure () =
  let q = Fleet.Admission.create ~cap:2 in
  check_bool "fresh queue empty" true (Fleet.Admission.is_empty q);
  let a = job "a" ~n:8 ~seed:1 and b = job "b" ~n:8 ~seed:2 and c = job "c" ~n:8 ~seed:3 in
  check_bool "push a" true (Fleet.Admission.push q a = Ok ());
  check_bool "push b" true (Fleet.Admission.push q b = Ok ());
  (match Fleet.Admission.push q c with
  | Ok () -> Alcotest.fail "over-cap push accepted"
  | Error msg -> check_bool "shed verdict names the cap" true (contains ~sub:"cap 2" msg));
  check_bool "no capacity at cap" false (Fleet.Admission.has_capacity q);
  (* retries/resume bypass the cap: accepted work is never shed *)
  Fleet.Admission.push_force q c;
  check_int "forced depth" 3 (Fleet.Admission.depth q)

let test_admission_fairness () =
  let q = Fleet.Admission.create ~cap:16 in
  let push id group seed = Fleet.Admission.push_force q (job id ~group ~n:8 ~seed) in
  (* one noisy group, one quiet one *)
  push "n1" "noisy" 1;
  push "n2" "noisy" 2;
  push "n3" "noisy" 3;
  push "q1" "quiet" 4;
  push "q2" "quiet" 5;
  check_bool "groups in service order" true
    (Fleet.Admission.groups q = [ ("noisy", 3); ("quiet", 2) ]);
  let order = List.init 5 (fun _ -> (Option.get (Fleet.Admission.pop q)).Fleet.Job.id) in
  Alcotest.(check (list string))
    "round-robin across groups, FIFO within" [ "n1"; "q1"; "n2"; "q2"; "n3" ] order;
  check_bool "drained" true (Fleet.Admission.pop q = None)

(* {2 Journal: round trip and torn-tail replay} *)

let test_journal_entry_roundtrip () =
  let spec = job "j1" ~n:8 ~seed:1 in
  List.iter
    (fun entry ->
      match Fleet.Journal.entry_of_json (Fleet.Journal.entry_to_json entry) with
      | Some entry' -> check_bool "entry round-trips" true (entry = entry')
      | None -> Alcotest.fail "entry failed to decode")
    [
      Fleet.Journal.Spec spec;
      Fleet.Journal.Start { id = "j1"; attempt = 1 };
      Fleet.Journal.Retry { id = "j1"; attempt = 1; error = "boom"; delay_ticks = 8 };
      Fleet.Journal.Done { id = "j1"; attempt = 2; converged = 3; trials = 3 };
      Fleet.Journal.Fail { id = "j1"; attempts = 3; error = "boom" };
      Fleet.Journal.Shed { id = "j2"; reason = "queue full (cap 2)" };
      Fleet.Journal.Drain { reason = "sigterm" };
    ]

let test_journal_replay_torn_tail () =
  let path = Filename.temp_file "fleet_journal" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let spec_a = job "a" ~n:8 ~seed:1 and spec_b = job "b" ~n:8 ~seed:2 in
      let j = Fleet.Journal.open_ path in
      List.iter
        (Fleet.Journal.append j)
        [
          Fleet.Journal.Spec spec_a;
          Fleet.Journal.Spec spec_b;
          Fleet.Journal.Start { id = "a"; attempt = 1 };
          Fleet.Journal.Done { id = "a"; attempt = 1; converged = 1; trials = 1 };
          Fleet.Journal.Start { id = "b"; attempt = 1 };
          Fleet.Journal.Retry { id = "b"; attempt = 1; error = "boom"; delay_ticks = 4 };
          Fleet.Journal.Start { id = "b"; attempt = 2 };
        ];
      Fleet.Journal.close j;
      (* a crash mid-append: torn partial record, no newline *)
      let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
      output_string oc {|{"v":1,"kind":"fleet","type":"done","id":"b",|};
      close_out oc;
      match Fleet.Journal.replay ~path with
      | Error msg -> Alcotest.failf "replay failed: %s" msg
      | Ok r ->
          check_bool "torn tail noticed" true r.Fleet.Journal.torn;
          check_bool "not cleanly drained" false r.Fleet.Journal.drained;
          check_int "both specs" 2 (List.length r.Fleet.Journal.specs);
          (match r.Fleet.Journal.completed with
          | [ d ] -> check_string "a completed" "a" d.Fleet.Journal.id
          | l -> Alcotest.failf "expected 1 completion, got %d" (List.length l));
          check_bool "no failures" true (r.Fleet.Journal.failed = []);
          (* b's last started attempt survives for resume accounting *)
          check_bool "attempt counts" true
            (List.assoc "b" r.Fleet.Journal.attempts = 2))

(* {2 Orchestrator end to end} *)

let fleet_config ?(workers = 2) ?(queue_cap = 64) ?(chaos = Chaos.Fleet_faults.none)
    ?(chaos_seed = 0) ~out_dir () =
  {
    (Fleet.Orchestrator.default_config ~out_dir) with
    Fleet.Orchestrator.workers;
    queue_cap;
    chaos;
    chaos_seed;
    backoff_base = 1;
  }

let submit_all orch jobs =
  List.iter
    (fun j ->
      match Fleet.Orchestrator.submit orch j with
      | `Accepted -> ()
      | `Shed reason -> Alcotest.failf "job %s shed: %s" j.Fleet.Job.id reason)
    jobs

(* Four small jobs across two scheduling groups. *)
let standard_jobs () =
  [
    job "sil-a" ~protocol:"silent" ~n:10 ~seed:3 ~trials:2;
    job "sil-b" ~protocol:"silent" ~n:8 ~seed:4;
    job "opt-a" ~protocol:"optimal" ~n:10 ~seed:5 ~trials:2;
    job "opt-b" ~protocol:"optimal" ~n:12 ~seed:6;
  ]

let run_fleet ?workers ?chaos ?chaos_seed ?should_drain ~out_dir jobs =
  let orch = Fleet.Orchestrator.create (fleet_config ?workers ?chaos ?chaos_seed ~out_dir ()) in
  submit_all orch jobs;
  let reason = Fleet.Orchestrator.run ~tick_s:0.0 ?should_drain orch in
  (orch, reason)

let events_of ~out_dir j = read_file (Fleet.Worker.events_path ~out_dir j)

let check_outputs_match ~base_dir ~out_dir jobs =
  List.iter
    (fun j ->
      check_string
        (Printf.sprintf "%s events bit-identical" j.Fleet.Job.id)
        (events_of ~out_dir:base_dir j) (events_of ~out_dir j);
      check_bool
        (Printf.sprintf "%s manifest present" j.Fleet.Job.id)
        true
        (Sys.file_exists (Fleet.Worker.manifest_path ~out_dir j)))
    jobs

let test_fleet_deterministic_across_workers () =
  let jobs = standard_jobs () in
  let base_dir = tmp_dir () and wide_dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf base_dir;
      rm_rf wide_dir)
    (fun () ->
      let orch1, reason1 = run_fleet ~workers:1 ~out_dir:base_dir jobs in
      check_string "clean drain" "complete" reason1;
      check_bool "all terminal" true (Fleet.Orchestrator.all_done orch1);
      check_int "all completed" 4 (Fleet.Orchestrator.completed_count orch1);
      let orch3, _ = run_fleet ~workers:3 ~out_dir:wide_dir jobs in
      check_int "all completed at 3 workers" 4 (Fleet.Orchestrator.completed_count orch3);
      let s = Fleet.Orchestrator.stats orch3 in
      check_int "no failures" 0 s.Fleet.Orchestrator.failed;
      check_outputs_match ~base_dir ~out_dir:wide_dir jobs;
      (* the journal replays to the same picture *)
      match Fleet.Journal.replay ~path:(Filename.concat wide_dir "fleet.journal.jsonl") with
      | Error msg -> Alcotest.failf "journal replay: %s" msg
      | Ok r ->
          check_bool "clean drain journaled" true r.Fleet.Journal.drained;
          check_int "four dones" 4 (List.length r.Fleet.Journal.completed))

let test_fleet_shed_and_duplicates () =
  let out_dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf out_dir)
    (fun () ->
      let orch = Fleet.Orchestrator.create (fleet_config ~workers:1 ~queue_cap:1 ~out_dir ()) in
      let a = job "a" ~n:8 ~seed:1 and b = job "b" ~n:8 ~seed:2 in
      check_bool "a accepted" true (Fleet.Orchestrator.submit orch a = `Accepted);
      (match Fleet.Orchestrator.submit orch b with
      | `Accepted -> Alcotest.fail "over-cap submission accepted"
      | `Shed reason -> check_bool "explicit queue-full verdict" true (contains ~sub:"full" reason));
      (match Fleet.Orchestrator.submit orch a with
      | `Accepted -> Alcotest.fail "duplicate id accepted"
      | `Shed reason -> check_bool "duplicate verdict" true (contains ~sub:"duplicate" reason));
      Fleet.Orchestrator.reject orch ~id:"line-3" ~reason:"not json";
      let reason = Fleet.Orchestrator.run ~tick_s:0.0 orch in
      check_string "completes" "complete" reason;
      let s = Fleet.Orchestrator.stats orch in
      check_int "one job ran" 1 s.Fleet.Orchestrator.completed;
      check_int "three sheds journaled" 3 s.Fleet.Orchestrator.shed;
      match Fleet.Journal.replay ~path:(Filename.concat out_dir "fleet.journal.jsonl") with
      | Error msg -> Alcotest.failf "journal replay: %s" msg
      | Ok r -> check_int "one spec accepted" 1 (List.length r.Fleet.Journal.specs))

let test_fleet_deadline_exhausts_retries () =
  let out_dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf out_dir)
    (fun () ->
      (* 5 interactions cannot stabilize n=10; every attempt blows the
         deadline deterministically, so the job fails with its retries
         accounted and leaves no partial outputs. *)
      let doomed = job "doomed" ~n:10 ~seed:7 ~deadline:5 ~retries:2 in
      let sound = job "sound" ~n:8 ~seed:8 in
      let orch, _ = run_fleet ~workers:1 ~out_dir [ doomed; sound ] in
      check_bool "all terminal" true (Fleet.Orchestrator.all_done orch);
      let s = Fleet.Orchestrator.stats orch in
      check_int "one failure" 1 s.Fleet.Orchestrator.failed;
      check_int "retries accounted" 2 s.Fleet.Orchestrator.retries;
      check_int "the sound job completed" 1 (Fleet.Orchestrator.completed_count orch);
      check_bool "no partial events" false
        (Sys.file_exists (Fleet.Worker.events_path ~out_dir doomed));
      check_bool "no partial manifest" false
        (Sys.file_exists (Fleet.Worker.manifest_path ~out_dir doomed));
      match Fleet.Journal.replay ~path:(Filename.concat out_dir "fleet.journal.jsonl") with
      | Error msg -> Alcotest.failf "journal replay: %s" msg
      | Ok r -> (
          match r.Fleet.Journal.failed with
          | [ (id, error) ] ->
              check_string "failed id" "doomed" id;
              check_bool "deadline named" true (contains ~sub:"deadline" error)
          | l -> Alcotest.failf "expected 1 failure, got %d" (List.length l)))

(* The acceptance test: kill-worker chaos plus a mid-run drain (the
   in-process stand-in for SIGKILL; CI's fleet-smoke job does the real
   kill) followed by --resume. Every job must end terminal with
   exactly-once outputs, and completed jobs' events files must be
   bit-identical to an undisturbed chaos-free run. *)
let test_fleet_chaos_kill_and_resume () =
  let jobs = standard_jobs () in
  let base_dir = tmp_dir () and out_dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () ->
      rm_rf base_dir;
      rm_rf out_dir)
    (fun () ->
      let _, _ = run_fleet ~workers:1 ~out_dir:base_dir jobs in
      (* chaos-seed 3 draws at least one kill over these four jobs at
         p=0.5 (deterministic: mix over (seed, id, attempt)) *)
      let chaos = { Chaos.Fleet_faults.none with Chaos.Fleet_faults.kill_worker = 0.5 } in
      (* workers:1 so at most the in-flight job can complete between the
         first completion and the drain taking hold — something is
         always stranded for resume to pick up *)
      let cfg = fleet_config ~workers:1 ~chaos ~chaos_seed:3 ~out_dir () in
      let orch = Fleet.Orchestrator.create cfg in
      submit_all orch jobs;
      (* injected crash: drain as soon as anything completed, stranding
         the rest of the queue in the journal *)
      let should_drain () =
        if Fleet.Orchestrator.completed_count orch >= 1 then Some "injected-crash" else None
      in
      let reason = Fleet.Orchestrator.run ~tick_s:0.0 ~should_drain orch in
      check_string "drained on the injected crash" "injected-crash" reason;
      let before = Fleet.Orchestrator.completed_count orch in
      check_bool "something stranded" true (before < 4);
      (* resume: terminal jobs stay terminal, stranded jobs re-queue *)
      let orch2 = Fleet.Orchestrator.create ~resume:true cfg in
      (* re-feeding the same specs after resume must shed as duplicates,
         never re-run a completed job *)
      List.iter
        (fun j ->
          match Fleet.Orchestrator.submit orch2 j with
          | `Accepted -> Alcotest.failf "%s re-accepted after resume" j.Fleet.Job.id
          | `Shed _ -> ())
        jobs;
      let (_ : string) = Fleet.Orchestrator.run ~tick_s:0.0 orch2 in
      check_bool "all terminal after resume" true (Fleet.Orchestrator.all_done orch2);
      let replay =
        match Fleet.Journal.replay ~path:cfg.Fleet.Orchestrator.journal_path with
        | Ok r -> r
        | Error msg -> Alcotest.failf "journal replay: %s" msg
      in
      (* exactly-once: one done entry per completed id across both lives *)
      let done_ids = List.map (fun d -> d.Fleet.Journal.id) replay.Fleet.Journal.completed in
      check_bool "no duplicated completions" true
        (List.sort_uniq compare done_ids = List.sort compare done_ids);
      let failed_ids = List.map fst replay.Fleet.Journal.failed in
      List.iter
        (fun j ->
          let id = j.Fleet.Job.id in
          let completed = List.mem id done_ids and failed = List.mem id failed_ids in
          check_bool (id ^ " terminal exactly one way") true (completed <> failed);
          if completed then begin
            check_string (id ^ " events bit-identical to undisturbed run")
              (events_of ~out_dir:base_dir j) (events_of ~out_dir j);
            check_bool (id ^ " manifest present") true
              (Sys.file_exists (Fleet.Worker.manifest_path ~out_dir j))
          end
          else begin
            check_bool (id ^ " no partial events") false
              (Sys.file_exists (Fleet.Worker.events_path ~out_dir j));
            check_bool (id ^ " no partial manifest") false
              (Sys.file_exists (Fleet.Worker.manifest_path ~out_dir j))
          end)
        jobs;
      (* the kills actually fired: retry entries in the journal *)
      let s = Fleet.Orchestrator.stats orch2 in
      let retries_total =
        s.Fleet.Orchestrator.retries + (Fleet.Orchestrator.stats orch).Fleet.Orchestrator.retries
      in
      check_bool "chaos drew at least one kill" true (retries_total > 0))

let test_fleet_torn_journal_resume () =
  let out_dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf out_dir)
    (fun () ->
      let jobs = [ job "a" ~n:8 ~seed:1; job "b" ~n:8 ~seed:2 ] in
      let chaos = { Chaos.Fleet_faults.none with Chaos.Fleet_faults.torn_journal = true } in
      let cfg = fleet_config ~workers:1 ~chaos ~out_dir () in
      let orch = Fleet.Orchestrator.create cfg in
      submit_all orch jobs;
      let (_ : string) = Fleet.Orchestrator.run ~tick_s:0.0 orch in
      check_int "completed before tear" 2 (Fleet.Orchestrator.completed_count orch);
      (* the shutdown tore the journal's final record; replay tolerates
         it and resume keeps completed jobs terminal *)
      let replay =
        match Fleet.Journal.replay ~path:cfg.Fleet.Orchestrator.journal_path with
        | Ok r -> r
        | Error msg -> Alcotest.failf "torn journal unreadable: %s" msg
      in
      check_bool "tear detected" true replay.Fleet.Journal.torn;
      let orch2 = Fleet.Orchestrator.create ~resume:true cfg in
      let manifest_before = read_file (Fleet.Worker.manifest_path ~out_dir (List.hd jobs)) in
      let (_ : string) = Fleet.Orchestrator.run ~tick_s:0.0 orch2 in
      check_bool "all still terminal" true (Fleet.Orchestrator.all_done orch2);
      check_string "completed manifest untouched by resume" manifest_before
        (read_file (Fleet.Worker.manifest_path ~out_dir (List.hd jobs))))

let test_fleet_snapshot_json () =
  let out_dir = tmp_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf out_dir)
    (fun () ->
      let orch, _ = run_fleet ~workers:1 ~out_dir [ job "a" ~n:8 ~seed:1 ] in
      let json = Fleet.Orchestrator.snapshot_json orch in
      let s = Telemetry.Json.to_string json in
      (match Telemetry.Json.parse s with
      | Ok back -> check_bool "snapshot round-trips" true (Telemetry.Json.equal json back)
      | Error msg -> Alcotest.failf "snapshot does not parse: %s" msg);
      check_bool "kind" true (contains ~sub:{|"kind":"fleet_status"|} s);
      check_bool "job row" true (contains ~sub:{|"state":"completed"|} s))

let suite =
  [
    Alcotest.test_case "supervise: captures raises, accounts failures" `Quick test_supervise;
    Alcotest.test_case "job: defaults and canonical round trip" `Quick
      test_job_defaults_and_roundtrip;
    Alcotest.test_case "job: malformed specs shed at admission" `Quick test_job_validation;
    Alcotest.test_case "admission: bounded with explicit shed verdicts" `Quick
      test_admission_backpressure;
    Alcotest.test_case "admission: round-robin fairness across groups" `Quick
      test_admission_fairness;
    Alcotest.test_case "journal: entry encode/decode round trip" `Quick
      test_journal_entry_roundtrip;
    Alcotest.test_case "journal: replay tolerates a torn tail" `Quick
      test_journal_replay_torn_tail;
    Alcotest.test_case "fleet: events bit-identical across worker counts" `Slow
      test_fleet_deterministic_across_workers;
    Alcotest.test_case "fleet: backpressure, duplicates and rejects journaled" `Quick
      test_fleet_shed_and_duplicates;
    Alcotest.test_case "fleet: deadline failures retry then fail accounted" `Slow
      test_fleet_deadline_exhausts_retries;
    Alcotest.test_case "fleet: chaos kills + crash/resume keep exactly-once outputs" `Slow
      test_fleet_chaos_kill_and_resume;
    Alcotest.test_case "fleet: torn-journal shutdown still resumes" `Slow
      test_fleet_torn_journal_resume;
    Alcotest.test_case "fleet: status snapshot json shape" `Quick test_fleet_snapshot_json;
  ]
