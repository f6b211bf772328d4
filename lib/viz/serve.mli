(** Minimal single-threaded HTTP server for live dashboards.

    Originally the soak-dashboard sidecar ([timeline --serve], over a
    JSONL events file another process is appending to); now generalized
    over a {!source} so the fleet orchestrator can serve its own status
    board ({!Fleet_board}) and accept job submissions from the same
    loop. Each {!poll} does one [select] round: accepts connections,
    answers complete requests, pumps the source, and pushes a fresh
    snapshot frame to every Server-Sent-Events subscriber. Single-
    threaded by construction — no domains, no threads — so tests can
    interleave client and server in one process by calling {!poll}
    between client operations, and an embedding event loop (the fleet's)
    can call [poll ~timeout:0.] once per tick.

    Routes: [/] (the page), [/data.json] (one snapshot), [/events]
    ([text/event-stream]; one [data: <snapshot>] frame immediately, one
    more per {!notify} or fresh source data), and — when the source
    accepts submissions — [POST /submit] (body handed to the source,
    [202]/[409] with a JSON reply). Anything else is 404, and a request
    whose Content-Length is not a decimal non-negative int is 400. HTTP support
    is the minimum the dashboards need — an observability sidecar, not a
    web server. A subscriber hanging up surfaces as [EPIPE] on the next
    frame and drops only that client; the loop and the other
    subscribers are untouched.

    Determinism note: the server never reads a clock; pacing comes from
    the [select] timeout and all displayed timestamps from the data
    itself ([bin/detlint] stays clean over this module). *)

type source = {
  page : string;  (** the HTML served at [/] *)
  snapshot : unit -> string;  (** current status as one-line JSON *)
  refresh : unit -> bool;
      (** pump underlying data once per poll; [true] = broadcast a frame *)
  submit : (string -> bool * string) option;
      (** [POST /submit] handler: body to (accepted, JSON reply) *)
  shutdown : unit -> unit;  (** called by {!close} *)
}

type request =
  | Incomplete  (** headers unfinished, or a body shorter than its Content-Length *)
  | Malformed  (** a Content-Length that is not a decimal non-negative int; answered 400 *)
  | Request of (string * string * string)  (** method, target without its query, body *)

val parse_request : string -> request
(** Reads the bytes a client has sent so far. Total: it never raises.
    The body is cut to the last Content-Length; without one it is
    everything after the headers. *)

type t

val of_source : ?host:string -> port:int -> source -> t
(** Binds and listens on [host] (default ["127.0.0.1"]) : [port]. Pass
    [port:0] to let the kernel pick (see {!port}). Ignores [SIGPIPE]
    process-wide (client disconnects surface as [EPIPE] and drop the
    client). *)

val create : ?host:string -> port:int -> path:string -> unit -> t
(** {!of_source} with the classic soak source: tail the events file at
    [path] (need not exist yet) through {!Telemetry.Tail} into a
    {!Telemetry.Timeline}, serving {!Dashboard.page}. *)

val port : t -> int
(** The bound port (useful after [port:0]). *)

val poll : ?timeout:float -> t -> unit
(** One server round, blocking at most [timeout] seconds (default 0.25)
    waiting for sockets. *)

val notify : t -> unit
(** Pushes a fresh snapshot frame to every SSE subscriber now — for
    sources whose state changes outside {!poll} (the fleet calls this
    on status transitions). *)

val run : t -> unit
(** {!poll} forever. *)

val close : t -> unit
(** Closes the listening socket, every client, and the source. *)
