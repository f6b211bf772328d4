type kernel = Interp | Compiled

type t = {
  id : string;
  protocol : string;
  n : int;
  h : int;
  seed : int;
  scenario : string;
  engine : Engine.Exec.kind;
  kernel : kernel;
  trials : int;
  chaos : string option;
  horizon : float option;
  sla : float option;
  deadline : int option;
  retries : int;
  group : string;
}

let kernel_to_string = function Interp -> "interp" | Compiled -> "compiled"

let id_ok id =
  id <> ""
  && String.length id <= 64
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = '-' || c = '.')
       id

(* A span of parallel time is usable when it is positive and its
   interaction count ([Telemetry.Timeline.to_interactions]) fits an int;
   NaN and the infinities fail both tests. *)
let time_ok ~n x = x > 0.0 && Float.ceil (x *. float_of_int n) < Float.of_int max_int

(* All validation lives here, at admission time (ssr_sim's command line
   goes through it too), so a worker never meets a spec it cannot run:
   the protocol, scenario, engine and kernel are checked against [Run]'s
   catalogue, the table the worker runs from. *)
let validate t =
  let fail fmt = Printf.ksprintf (fun msg -> Error (Printf.sprintf "job %s: %s" t.id msg)) fmt in
  if not (id_ok t.id) then
    Error
      (Printf.sprintf "job id %S must be 1-64 chars of [A-Za-z0-9_.-] (it names output files)"
         t.id)
  else if t.n < 2 then fail "n must be >= 2 (got %d)" t.n
  else if t.h < 0 then fail "h must be >= 0 (got %d)" t.h
  else if t.trials < 1 then fail "trials must be >= 1 (got %d)" t.trials
  else if t.retries < 0 then fail "retries must be >= 0 (got %d)" t.retries
  else if (match t.deadline with Some d -> d < 1 | None -> false) then
    fail "deadline must be >= 1 interaction"
  else if (match t.horizon with Some x -> not (time_ok ~n:t.n x) | None -> false) then
    fail "horizon must be finite, > 0 and below max_int / n time units"
  else if (match t.sla with Some x -> not (time_ok ~n:t.n x) | None -> false) then
    fail "sla must be finite, > 0 and below max_int / n time units"
  else if (t.horizon <> None || t.sla <> None) && t.chaos = None then
    fail "horizon/sla require a chaos spec"
  else
    match
      Run.check ~protocol:t.protocol ~n:t.n ~h:t.h ~scenario:t.scenario ~engine:t.engine
        ~compiled:(t.kernel = Compiled)
    with
    | Error msg -> fail "%s" msg
    | Ok () -> (
        match t.chaos with
        | None -> Ok t
        | Some spec -> (
            match Chaos.Spec.parse spec with
            | Ok _ -> Ok t
            | Error msg -> fail "chaos: %s" msg))

let make ~id ~protocol ~n ?(h = 2) ~seed ?(scenario = "uniform") ?(engine = Engine.Exec.Agent)
    ?(kernel = Interp) ?(trials = 1) ?chaos ?horizon ?sla ?deadline ?(retries = 2) ?group () =
  validate
    {
      id;
      protocol;
      n;
      h;
      seed;
      scenario;
      engine;
      kernel;
      trials;
      chaos;
      horizon;
      sla;
      deadline;
      retries;
      group = (match group with Some g -> g | None -> protocol);
    }

let field name json = Telemetry.Json.member name json

let int_field ?default name json =
  match Option.bind (field name json) Telemetry.Json.to_int with
  | Some v -> Ok v
  | None -> (
      match (field name json, default) with
      | None, Some d -> Ok d
      | _ -> Error (Printf.sprintf "field %S: expected an int" name))

let string_field ?default name json =
  match Option.bind (field name json) Telemetry.Json.to_string_opt with
  | Some v -> Ok v
  | None -> (
      match (field name json, default) with
      | None, Some d -> Ok d
      | _ -> Error (Printf.sprintf "field %S: expected a string" name))

let opt_field name conv json =
  match field name json with
  | None | Some Telemetry.Json.Null -> Ok None
  | Some v -> (
      match conv v with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "field %S: wrong type" name))

let ( let* ) = Result.bind

let of_json json =
  match json with
  | Telemetry.Json.Obj _ ->
      let* id = string_field "id" json in
      let* protocol = string_field ~default:"optimal" "protocol" json in
      let* n = int_field "n" json in
      let* h = int_field ~default:2 "h" json in
      let* seed = int_field ~default:1 "seed" json in
      let* scenario = string_field ~default:"uniform" "scenario" json in
      let* engine_s = string_field ~default:"agent" "engine" json in
      let* engine =
        match engine_s with
        | "agent" -> Ok Engine.Exec.Agent
        | "count" -> Ok Engine.Exec.Count
        | other -> Error (Printf.sprintf "field \"engine\": %S is not agent | count" other)
      in
      let* kernel_s = string_field ~default:"interp" "kernel" json in
      let* kernel =
        match kernel_s with
        | "interp" -> Ok Interp
        | "compiled" -> Ok Compiled
        | other -> Error (Printf.sprintf "field \"kernel\": %S is not interp | compiled" other)
      in
      let* trials = int_field ~default:1 "trials" json in
      let* chaos = opt_field "chaos" Telemetry.Json.to_string_opt json in
      let* horizon = opt_field "horizon" Telemetry.Json.to_float json in
      let* sla = opt_field "sla" Telemetry.Json.to_float json in
      let* deadline = opt_field "deadline" Telemetry.Json.to_int json in
      let* retries = int_field ~default:2 "retries" json in
      let* group = string_field ~default:protocol "group" json in
      validate
        {
          id;
          protocol;
          n;
          h;
          seed;
          scenario;
          engine;
          kernel;
          trials;
          chaos;
          horizon;
          sla;
          deadline;
          retries;
          group;
        }
  | _ -> Error "job spec must be a JSON object"

let of_line line =
  match Telemetry.Json.parse line with
  | Ok json -> of_json json
  | Error msg -> Error (Printf.sprintf "bad JSON: %s" msg)

let to_json t =
  let opt f = function Some v -> f v | None -> Telemetry.Json.Null in
  Telemetry.Json.Obj
    [
      ("id", Telemetry.Json.String t.id);
      ("protocol", Telemetry.Json.String t.protocol);
      ("n", Telemetry.Json.Int t.n);
      ("h", Telemetry.Json.Int t.h);
      ("seed", Telemetry.Json.Int t.seed);
      ("scenario", Telemetry.Json.String t.scenario);
      ("engine", Telemetry.Json.String (Engine.Exec.kind_to_string t.engine));
      ("kernel", Telemetry.Json.String (kernel_to_string t.kernel));
      ("trials", Telemetry.Json.Int t.trials);
      ("chaos", opt (fun s -> Telemetry.Json.String s) t.chaos);
      ("horizon", opt (fun x -> Telemetry.Json.Float x) t.horizon);
      ("sla", opt (fun x -> Telemetry.Json.Float x) t.sla);
      ("deadline", opt (fun d -> Telemetry.Json.Int d) t.deadline);
      ("retries", Telemetry.Json.Int t.retries);
      ("group", Telemetry.Json.String t.group);
    ]

(* --horizon and --sla are given in parallel time units; the soak runs on
   the interaction clock. *)
let plan ?topology t =
  let to_interactions = Telemetry.Timeline.to_interactions ~n:t.n in
  let mode =
    match t.chaos with
    | None -> Ok (Run.Stability { deadline = t.deadline })
    | Some spec ->
        Result.map
          (fun (schedule, adversary) ->
            Run.Soak
              {
                schedule;
                adversary;
                horizon =
                  (match t.horizon with
                  | Some x -> to_interactions x
                  | None -> 8 * Engine.Runner.default_confirm ~n:t.n);
                sla_budget = Option.map to_interactions t.sla;
              })
          (Chaos.Spec.parse spec)
  in
  Result.bind mode
    (Run.plan ?topology ~protocol:t.protocol ~n:t.n ~h:t.h ~scenario:t.scenario ~engine:t.engine
       ~compiled:(t.kernel = Compiled))
