(* Fixed-size domain pool. One shared FIFO of thunks, guarded by a mutex
   and a condition variable; the submitting domain participates in
   draining its own batch, so a pool of [jobs = 1] never spawns a domain
   and degenerates to a plain sequential loop. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  work_available : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable closed : bool;
  mutable workers : unit Domain.t list;
  (* Per-domain utilization (telemetry): slot 0 is the submitting domain,
     slots 1..jobs-1 the workers. Guarded by [stats_mutex], touched once
     per task — not per interaction. *)
  stats_mutex : Mutex.t;
  tasks_run : int array;
  busy_s : float array;
}

type domain_stats = { tasks : int; busy_s : float }

let record_task pool slot dt =
  Mutex.lock pool.stats_mutex;
  pool.tasks_run.(slot) <- pool.tasks_run.(slot) + 1;
  pool.busy_s.(slot) <- pool.busy_s.(slot) +. dt;
  Mutex.unlock pool.stats_mutex

let run_task pool slot thunk =
  let t0 = Unix.gettimeofday () in
  thunk ();
  record_task pool slot (Unix.gettimeofday () -. t0)

let stats pool =
  Mutex.lock pool.stats_mutex;
  let out =
    Array.init pool.jobs (fun i -> { tasks = pool.tasks_run.(i); busy_s = pool.busy_s.(i) })
  in
  Mutex.unlock pool.stats_mutex;
  out

let resolve_jobs = function
  | Some j when j >= 1 -> Ok j
  | Some j -> Error (Printf.sprintf "--jobs must be >= 1 (got %d)" j)
  | None -> (
      match Sys.getenv_opt "REPRO_JOBS" with
      | None -> Ok (Domain.recommended_domain_count ())
      | Some s -> (
          match int_of_string_opt (String.trim s) with
          | Some j when j >= 1 -> Ok j
          | Some _ | None ->
              Error (Printf.sprintf "REPRO_JOBS=%S: expected a positive integer" s)))

let default_jobs () =
  match resolve_jobs None with Ok j -> j | Error msg -> invalid_arg msg

let jobs pool = pool.jobs

(* Workers block on [work_available]; [closed] with an empty queue means
   exit. Tasks never raise: batch thunks trap exceptions into their slot. *)
let rec worker_loop pool slot =
  Mutex.lock pool.mutex;
  let rec take () =
    if not (Queue.is_empty pool.queue) then Some (Queue.pop pool.queue)
    else if pool.closed then None
    else begin
      Condition.wait pool.work_available pool.mutex;
      take ()
    end
  in
  let task = take () in
  Mutex.unlock pool.mutex;
  match task with
  | None -> ()
  | Some thunk ->
      run_task pool slot thunk;
      worker_loop pool slot

let create ~jobs =
  if jobs < 1 then invalid_arg "Engine.Pool.create: jobs must be >= 1";
  let pool =
    {
      jobs;
      mutex = Mutex.create ();
      work_available = Condition.create ();
      queue = Queue.create ();
      closed = false;
      workers = [];
      stats_mutex = Mutex.create ();
      tasks_run = Array.make jobs 0;
      busy_s = Array.make jobs 0.0;
    }
  in
  pool.workers <-
    List.init (jobs - 1) (fun i -> Domain.spawn (fun () -> worker_loop pool (i + 1)));
  pool

let shutdown pool =
  Mutex.lock pool.mutex;
  pool.closed <- true;
  Condition.broadcast pool.work_available;
  Mutex.unlock pool.mutex;
  let workers = pool.workers in
  pool.workers <- [];
  List.iter Domain.join workers

type 'a slot = Pending | Done of 'a | Failed of exn * Printexc.raw_backtrace

let run pool tasks =
  let k = Array.length tasks in
  if k = 0 then [||]
  else begin
    Mutex.lock pool.mutex;
    let closed = pool.closed in
    Mutex.unlock pool.mutex;
    if closed then invalid_arg "Engine.Pool.run: pool is shut down";
    let slots = Array.make k Pending in
    let remaining = ref k in
    let batch_mutex = Mutex.create () in
    let batch_done = Condition.create () in
    let run_one i =
      let result =
        try Done (tasks.(i) ())
        with e -> Failed (e, Printexc.get_raw_backtrace ())
      in
      Mutex.lock batch_mutex;
      slots.(i) <- result;
      decr remaining;
      if !remaining = 0 then Condition.broadcast batch_done;
      Mutex.unlock batch_mutex
    in
    Mutex.lock pool.mutex;
    for i = 0 to k - 1 do
      Queue.push (fun () -> run_one i) pool.queue
    done;
    Condition.broadcast pool.work_available;
    Mutex.unlock pool.mutex;
    (* The submitter drains the queue alongside the workers… *)
    let rec help () =
      Mutex.lock pool.mutex;
      let task = if Queue.is_empty pool.queue then None else Some (Queue.pop pool.queue) in
      Mutex.unlock pool.mutex;
      match task with
      | Some thunk ->
          run_task pool 0 thunk;
          help ()
      | None -> ()
    in
    help ();
    (* …then waits for the stragglers still running on worker domains. *)
    Mutex.lock batch_mutex;
    while !remaining > 0 do
      Condition.wait batch_done batch_mutex
    done;
    Mutex.unlock batch_mutex;
    (* Re-raise the lowest-indexed failure only after the whole batch has
       drained, so no task is left running against freed state. *)
    Array.iter
      (function Failed (e, bt) -> Printexc.raise_with_backtrace e bt | Pending | Done _ -> ())
      slots;
    Array.map (function Done v -> v | Pending | Failed _ -> assert false) slots
  end

(* Detached submission for long-lived orchestrators (lib/fleet): enqueue
   one task and return immediately. The submitter never helps drain (it
   is an event loop, not a batch), so at least one worker domain must
   exist. Exceptions are trapped: a raising detached task would
   otherwise kill its worker domain and surface only at [shutdown]. *)
let submit pool thunk =
  if pool.jobs < 2 then
    invalid_arg "Engine.Pool.submit: detached tasks need at least one worker domain (jobs >= 2)";
  Mutex.lock pool.mutex;
  let closed = pool.closed in
  if not closed then begin
    Queue.push (fun () -> try thunk () with _ -> ()) pool.queue;
    Condition.signal pool.work_available
  end;
  Mutex.unlock pool.mutex;
  if closed then invalid_arg "Engine.Pool.submit: pool is shut down"

let map pool f xs = run pool (Array.map (fun x () -> f x) xs)

let init pool k f = run pool (Array.init k (fun i () -> f i))

let with_pool ?jobs f =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)
