(* Tests for the Engine.Pool domain pool: ordered results, exception
   propagation, reuse after failure, and the jobs-invariance guarantee of
   Fleet.Run.run_trials built on top of it. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

exception Boom of int

let test_empty_task_list () =
  Engine.Pool.with_pool ~jobs:2 (fun pool ->
      check_int "empty run" 0 (Array.length (Engine.Pool.run pool [||]));
      check_int "init 0" 0 (Array.length (Engine.Pool.init pool 0 (fun i -> i))))

let test_sequential_jobs1 () =
  Engine.Pool.with_pool ~jobs:1 (fun pool ->
      check_int "jobs" 1 (Engine.Pool.jobs pool);
      let r = Engine.Pool.init pool 10 (fun i -> i * i) in
      Alcotest.(check (array int)) "squares" (Array.init 10 (fun i -> i * i)) r)

let test_more_tasks_than_domains () =
  (* 3 domains, 57 tasks: results must come back in submission order. *)
  Engine.Pool.with_pool ~jobs:3 (fun pool ->
      let r = Engine.Pool.init pool 57 (fun i -> 2 * i) in
      Alcotest.(check (array int)) "ordered" (Array.init 57 (fun i -> 2 * i)) r;
      let m = Engine.Pool.map pool String.length [| "a"; "bb"; "ccc" |] in
      Alcotest.(check (array int)) "map" [| 1; 2; 3 |] m)

let test_exception_propagates () =
  Engine.Pool.with_pool ~jobs:2 (fun pool ->
      (* The first failing index is re-raised; the pool must not deadlock
         and must stay usable for the next batch. *)
      Alcotest.check_raises "first failure re-raised" (Boom 3) (fun () ->
          ignore
            (Engine.Pool.init pool 20 (fun i ->
                 if i >= 3 && i mod 5 = 3 then raise (Boom i) else i)));
      let r = Engine.Pool.init pool 8 (fun i -> i + 1) in
      check_int "pool survives a failed batch" 8 (Array.length r))

let test_shutdown_semantics () =
  let pool = Engine.Pool.create ~jobs:2 in
  check_int "one batch" 5 (Array.length (Engine.Pool.run pool (Array.make 5 (fun () -> 0))));
  Engine.Pool.shutdown pool;
  Engine.Pool.shutdown pool;
  (* idempotent *)
  check_bool "run after shutdown rejected" true
    (try
       ignore (Engine.Pool.run pool [| (fun () -> 0) |]);
       false
     with Invalid_argument _ -> true)

let test_default_jobs_env () =
  check_bool "default jobs positive" true (Engine.Pool.default_jobs () >= 1)

(* Resolution never raises: a bad flag or a malformed REPRO_JOBS is a
   usage message. The variable is restored afterwards (to the recommended
   count when it was unset: Unix has no unsetenv, and the two resolve
   alike). *)
let test_resolve_jobs_total () =
  let saved = Sys.getenv_opt "REPRO_JOBS" in
  let resolve env =
    Unix.putenv "REPRO_JOBS" env;
    Engine.Pool.resolve_jobs None
  in
  let rejects what = function
    | Ok j -> Alcotest.failf "%s: resolved to %d" what j
    | Error msg ->
        check_bool (what ^ ": the message names REPRO_JOBS") true
          (String.starts_with ~prefix:"REPRO_JOBS=" msg)
  in
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "REPRO_JOBS"
        (match saved with
        | Some v -> v
        | None -> string_of_int (Domain.recommended_domain_count ())))
    (fun () ->
      check_bool "flag wins" true (Engine.Pool.resolve_jobs (Some 3) = Ok 3);
      check_bool "flag below 1" true (Result.is_error (Engine.Pool.resolve_jobs (Some 0)));
      check_bool "env value" true (resolve " 4 " = Ok 4);
      rejects "word" (resolve "zero");
      rejects "zero" (resolve "0");
      rejects "empty" (resolve "");
      check_bool "flag ignores a bad env" true
        (Unix.putenv "REPRO_JOBS" "zero";
         Engine.Pool.resolve_jobs (Some 2) = Ok 2))

(* run_trials must give bit-identical results for every jobs value: the
   per-trial PRNG children are split before dispatch. *)
let qcheck_run_trials_jobs_invariant =
  QCheck.Test.make ~name:"run_trials identical under jobs=1 and jobs=3" ~count:30
    QCheck.(pair small_int (int_range 0 12))
    (fun (seed, trials) ->
      let body _ rng = Prng.float rng +. float_of_int (Prng.int rng 1000) in
      let a = Fleet.Run.run_trials ~jobs:1 ~trials ~seed body in
      let b = Fleet.Run.run_trials ~jobs:3 ~trials ~seed body in
      a = b)

(* Full-path determinism: measure (simulation trials, convergence times,
   failure/violation accounting) is invariant in the number of domains. *)
let qcheck_measure_jobs_invariant =
  QCheck.Test.make ~name:"measure identical under jobs=1 and jobs=4" ~count:10
    QCheck.(int_bound 1000)
    (fun seed ->
      let n = 6 in
      let protocol = Core.Silent_n_state.protocol ~n in
      let run ~jobs =
        Experiments.Exp_common.measure ~jobs ~label:"t" ~protocol
          ~init:(fun rng -> Core.Scenarios.silent_uniform rng ~n)
          ~expected_time:(float_of_int (n * n))
          ~trials:6 ~seed ()
      in
      let a = run ~jobs:1 and b = run ~jobs:4 in
      a.Experiments.Exp_common.times = b.Experiments.Exp_common.times
      && a.Experiments.Exp_common.failures = b.Experiments.Exp_common.failures
      && a.Experiments.Exp_common.violations = b.Experiments.Exp_common.violations
      && a.Experiments.Exp_common.silent_checked = b.Experiments.Exp_common.silent_checked
      && a.Experiments.Exp_common.silent_ok = b.Experiments.Exp_common.silent_ok)

let suite =
  [
    Alcotest.test_case "empty task list" `Quick test_empty_task_list;
    Alcotest.test_case "jobs=1 sequential" `Quick test_sequential_jobs1;
    Alcotest.test_case "more tasks than domains" `Quick test_more_tasks_than_domains;
    Alcotest.test_case "exception propagation" `Quick test_exception_propagates;
    Alcotest.test_case "shutdown semantics" `Quick test_shutdown_semantics;
    Alcotest.test_case "default jobs" `Quick test_default_jobs_env;
    Alcotest.test_case "resolve jobs is total" `Quick test_resolve_jobs_total;
    QCheck_alcotest.to_alcotest qcheck_run_trials_jobs_invariant;
    QCheck_alcotest.to_alcotest qcheck_measure_jobs_invariant;
  ]
