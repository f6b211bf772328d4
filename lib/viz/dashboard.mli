(** The live soak dashboard: snapshot JSON and the self-contained page.

    [timeline --serve] (see {!Serve}) streams {!snapshot_json} values
    over Server-Sent Events into {!page}, a single HTML document with
    inline CSS and JS and no external assets — openable from a file://
    or any bare HTTP server, watchable while [ssr_sim --chaos] is still
    writing the events file. The page renders stat tiles, an
    availability-over-time strip, a pooled recovery-time CDF, and a
    per-run table inside the shell it shares with {!Fleet_board.page}
    ({!Live_page}: fixed palette, light/dark via [prefers-color-scheme]
    plus a manual toggle). All timestamps shown come from the event
    stream, not any clock. *)

val snapshot_json :
  ?dropped:int -> path:string -> Telemetry.Timeline.summary list -> Telemetry.Json.t
(** The wire format of one dashboard update (also served at
    [/data.json]): [{"v":1, "path", "dropped", "aggregate":{…},
    "runs":[…], "recovery_times":[…]}] with per-run convergence,
    violation, availability, and burst fields mirroring
    {!Telemetry.Timeline.summary}. [dropped] is the tailer's skipped
    undecodable line count. *)

val page : path:string -> string
(** The dashboard HTML for the events file at [path] (displayed, and
    embedded as the SSE endpoint's origin-relative URLs — the page
    itself always connects to [/events]). *)
