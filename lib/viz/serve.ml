type source = {
  page : string;
  snapshot : unit -> string;
  refresh : unit -> bool;
  submit : (string -> bool * string) option;
  shutdown : unit -> unit;
}

let tail_source ~path =
  let tail = Telemetry.Tail.create ~path in
  let state = Telemetry.Timeline.state () in
  {
    page = Dashboard.page ~path;
    snapshot =
      (fun () ->
        Telemetry.Json.to_string
          (Dashboard.snapshot_json
             ~dropped:(Telemetry.Tail.dropped tail)
             ~path
             (Telemetry.Timeline.snapshot state)));
    refresh =
      (fun () ->
        let fresh = Telemetry.Tail.poll tail in
        List.iter (Telemetry.Timeline.push state) fresh;
        fresh <> []);
    submit = None;
    shutdown = (fun () -> Telemetry.Tail.close tail);
  }

type client = {
  fd : Unix.file_descr;
  request : Buffer.t;  (* accumulated request bytes until the request completes *)
  mutable sse : bool;  (* upgraded to a text/event-stream subscriber *)
}

type t = {
  listen_fd : Unix.file_descr;
  bound_port : int;
  source : source;
  chunk : Bytes.t;
  mutable clients : client list;
}

let of_source ?(host = "127.0.0.1") ~port source =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listen_fd Unix.SO_REUSEADDR true;
  Unix.bind listen_fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
  Unix.listen listen_fd 16;
  let bound_port =
    match Unix.getsockname listen_fd with
    | Unix.ADDR_INET (_, p) -> p
    | Unix.ADDR_UNIX _ -> port
  in
  { listen_fd; bound_port; source; chunk = Bytes.create 4096; clients = [] }

let create ?host ~port ~path () = of_source ?host ~port (tail_source ~path)

let port t = t.bound_port

let drop t client =
  t.clients <- List.filter (fun c -> c.fd != client.fd) t.clients;
  try Unix.close client.fd with Unix.Unix_error (_, _, _) -> ()

(* Best-effort full write; false (client gone) on connection errors. *)
let send t client s =
  let len = String.length s in
  let rec go off =
    if off >= len then true
    else
      match Unix.write_substring client.fd s off (len - off) with
      | k -> go (off + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error (_, _, _) ->
          drop t client;
          false
  in
  go 0

let response ~status ~content_type body =
  Printf.sprintf
    "HTTP/1.1 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    status content_type (String.length body) body

let sse_frame json = "data: " ^ json ^ "\n\n"

let sse_header =
  "HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nCache-Control: no-cache\r\n\
   Connection: keep-alive\r\n\r\nretry: 1000\n\n"

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i = if i + m > n then None else if String.sub s i m = sub then Some i else at (i + 1) in
  at 0

type request = Incomplete | Malformed | Request of (string * string * string)

let parse_request s =
  let headers_body =
    match find_sub s "\r\n\r\n" with
    | Some i -> Some (String.sub s 0 i, String.sub s (i + 4) (String.length s - i - 4))
    | None -> (
        match find_sub s "\n\n" with
        | Some i -> Some (String.sub s 0 i, String.sub s (i + 2) (String.length s - i - 2))
        | None -> None)
  in
  match headers_body with
  | None -> Incomplete
  | Some (headers, body) -> (
      let first_line =
        match String.index_opt headers '\n' with
        | Some i -> String.trim (String.sub headers 0 i)
        | None -> String.trim headers
      in
      let meth, target =
        match String.split_on_char ' ' first_line with
        | meth :: target :: _ -> (
            ( meth,
              match String.index_opt target '?' with
              | Some i -> String.sub target 0 i
              | None -> target ))
        | _ -> ("GET", "/")
      in
      (* the last Content-Length counts; one that is not a decimal
         non-negative int makes the request malformed *)
      let content_length =
        String.split_on_char '\n' headers
        |> List.fold_left
             (fun acc line ->
               match (acc, String.index_opt line ':') with
               | Error (), _ -> acc
               | _, Some i
                 when String.lowercase_ascii (String.trim (String.sub line 0 i)) = "content-length"
                 -> (
                   let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
                   match int_of_string_opt v with
                   | Some len when String.for_all (fun c -> c >= '0' && c <= '9') v ->
                       Ok (Some len)
                   | _ -> Error ())
               | _ -> acc)
             (Ok None)
      in
      match content_length with
      | Error () -> Malformed
      | Ok (Some len) when String.length body < len -> Incomplete
      | Ok (Some len) -> Request (meth, target, String.sub body 0 len)
      | Ok None -> Request (meth, target, body))

let handle_request t client (meth, target, body) =
  match (meth, target) with
  | "GET", ("/" | "/index.html") ->
      let _ =
        send t client
          (response ~status:"200 OK" ~content_type:"text/html; charset=utf-8" t.source.page)
      in
      drop t client
  | "GET", "/data.json" ->
      let _ =
        send t client
          (response ~status:"200 OK" ~content_type:"application/json"
             (t.source.snapshot () ^ "\n"))
      in
      drop t client
  | "GET", "/events" ->
      if send t client sse_header then
        if send t client (sse_frame (t.source.snapshot ())) then client.sse <- true
  | "POST", "/submit" -> (
      match t.source.submit with
      | None ->
          let _ =
            send t client
              (response ~status:"404 Not Found" ~content_type:"text/plain"
                 "this server takes no submissions\n")
          in
          drop t client
      | Some submit ->
          let accepted, reply = submit body in
          let status = if accepted then "202 Accepted" else "409 Conflict" in
          let _ = send t client (response ~status ~content_type:"application/json" (reply ^ "\n")) in
          drop t client)
  | _ ->
      let _ =
        send t client (response ~status:"404 Not Found" ~content_type:"text/plain" "not found\n")
      in
      drop t client

let read_client t client =
  match Unix.read client.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> drop t client
  | k ->
      if client.sse then () (* subscribers only ever hang up *)
      else begin
        Buffer.add_subbytes client.request t.chunk 0 k;
        match parse_request (Buffer.contents client.request) with
        | Request req -> handle_request t client req
        | Incomplete -> ()
        | Malformed ->
            let _ =
              send t client
                (response ~status:"400 Bad Request" ~content_type:"text/plain"
                   "malformed request\n")
            in
            drop t client
      end
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error (_, _, _) -> drop t client

let broadcast t =
  let frame = sse_frame (t.source.snapshot ()) in
  List.iter (fun c -> if c.sse then ignore (send t c frame)) t.clients

let notify t = broadcast t

let poll ?(timeout = 0.25) t =
  let fds = t.listen_fd :: List.map (fun c -> c.fd) t.clients in
  let readable =
    match Unix.select fds [] [] timeout with
    | readable, _, _ -> readable
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  if List.memq t.listen_fd readable then begin
    match Unix.accept t.listen_fd with
    | fd, _ -> t.clients <- { fd; request = Buffer.create 256; sse = false } :: t.clients
    | exception Unix.Unix_error (_, _, _) -> ()
  end;
  (* iterate over a snapshot of the list: handlers mutate [t.clients] *)
  List.iter (fun client -> if List.memq client.fd readable then read_client t client) t.clients;
  if t.source.refresh () then broadcast t

let rec run t =
  poll t;
  run t

let close t =
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()) t.clients;
  t.clients <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error (_, _, _) -> ());
  t.source.shutdown ()
