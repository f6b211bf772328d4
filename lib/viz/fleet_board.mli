(** Live fleet status board.

    The HTML page served at [/] by [fleet --serve]: tiles for queue
    depth, in-flight, completed, failed, retries and shed counts, the
    per-group queue depths, and a per-job state table — all rendered
    client-side from the orchestrator's [fleet_status] SSE frames
    ([Fleet.Orchestrator.snapshot_json]; the server side is a
    {!Serve.source}, wired up in [bin/fleet]). It shares its shell with
    {!Dashboard.page} ({!Live_page}): inline CSS and JS, no external
    assets, no clock reads. *)

val page : title:string -> string
(** [title] is shown in the header and the document title (escaped). *)
