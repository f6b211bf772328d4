type t = {
  run : string;
  protocol : string option;
  engine : string option;
  n : int option;
  seed : int;
  trials : int;
  jobs : int;
  params : (string * Json.t) list;
  wall_clock_s : float;
  git : string option;
  argv : string list;
}

let describe () =
  try
    let ic = Unix.open_process_in "git describe --always --dirty 2>/dev/null" in
    let line = try Some (String.trim (input_line ic)) with End_of_file -> None in
    match (Unix.close_process_in ic, line) with
    | Unix.WEXITED 0, Some line when line <> "" -> Some line
    | _ -> None
  with Unix.Unix_error _ | Sys_error _ -> None

(* Spawning git costs milliseconds and a fleet writes a manifest per job
   attempt, so the revision is described once per process. Fleet workers
   write manifests from several domains, and [Lazy.force] is not
   domain-safe: the mutex guards the one spawn. *)
let git_lock = Mutex.create ()
let git = ref None

let git_describe () =
  Mutex.protect git_lock (fun () ->
      if !git = None then git := Some (describe ());
      Option.get !git)

let make ~run ?protocol ?engine ?n ~seed ?(trials = 1) ?(jobs = 1) ?(params = []) ~wall_clock_s
    () =
  {
    run;
    protocol;
    engine;
    n;
    seed;
    trials;
    jobs;
    params;
    wall_clock_s;
    git = git_describe ();
    argv = Array.to_list Sys.argv;
  }

let opt f = function Some v -> f v | None -> Json.Null

let to_json t =
  Json.Obj
    [
      ("v", Json.Int 1);
      ("kind", Json.String "manifest");
      ("run", Json.String t.run);
      ("protocol", opt (fun s -> Json.String s) t.protocol);
      ("engine", opt (fun s -> Json.String s) t.engine);
      ("n", opt (fun n -> Json.Int n) t.n);
      ("seed", Json.Int t.seed);
      ("trials", Json.Int t.trials);
      ("jobs", Json.Int t.jobs);
      ("params", Json.Obj t.params);
      ("wall_clock_s", Json.Float t.wall_clock_s);
      ("git", opt (fun s -> Json.String s) t.git);
      ("argv", Json.List (List.map (fun a -> Json.String a) t.argv));
      ("events_schema", Json.Int Events.version);
    ]

let write ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string (to_json t));
      output_char oc '\n')
