(** The shell of the live pages, {!Dashboard.page} and {!Fleet_board.page}.

    One self-contained HTML document: inline CSS on the repo's palette
    custom properties, dark mode via [prefers-color-scheme] with a
    [data-theme] override toggled by a header button, the shared header,
    stat-tile and table styles, and inline JS that defines the [$] helper
    and feeds every Server-Sent Event from [/events] to the page's
    [draw]. No external assets and no clock reads. *)

val render :
  title:string ->
  heading:string ->
  sub:string ->
  note:string ->
  style:string ->
  body:string ->
  script:string ->
  string
(** [title] is the document title and [heading] the page heading; [sub]
    is the HTML of the header line before the connection status, and
    [note] the id of the empty span after it. [style] is the page's own
    CSS, [body] its HTML below the header, and [script] its JS, which
    must define [draw(snapshot)]. The caller escapes what it embeds. *)
