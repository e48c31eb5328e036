(* Live telemetry endpoint: a minimal HTTP/1.0 responder over the same
   socket primitives as the job service.  Two routes, GET only,
   Connection: close — enough for a Prometheus scrape or a shell
   probe, deliberately nothing more (no keep-alive, no chunking, no
   TLS; bind it to loopback). *)

module Obs = Elin_obs

type health = {
  state : string;  (* "serving" | "draining" *)
  queue_depth : int;
  connections : int;
  workers : int;
}

type t = {
  addr : Addr.t;
  bound : Unix.sockaddr;
  listen_fd : Unix.file_descr;
  health : unit -> health;
  stopping : bool Atomic.t;
  mutable acceptor : Thread.t option;
  mutable stopped : bool;
  stop_m : Mutex.t;
}

let m_scrapes = Obs.Metrics.counter "telemetry.scrapes"

let health_json h =
  let open Obs.Jsonl in
  Obj
    [
      ("status", Str h.state);
      ("queue", Int h.queue_depth);
      ("conns", Int h.connections);
      ("workers", Int h.workers);
    ]

(* Read until the blank line ending the request head (we never expect
   a body on GET), bounded to keep a hostile peer from growing the
   buffer; 2 s of socket silence drops the connection. *)
let read_head fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  let deadline = Unix.gettimeofday () +. 2. in
  let rec go () =
    if Buffer.length buf > 8192 then None
    else
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0. then None
      else
        match Unix.select [ fd ] [] [] remaining with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | [], _, _ -> None
        | _ -> (
            match Unix.read fd chunk 0 (Bytes.length chunk) with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
            | exception Unix.Unix_error _ -> None
            | 0 -> None
            | n ->
                Buffer.add_subbytes buf chunk 0 n;
                let s = Buffer.contents buf in
                let found =
                  (* tolerate bare-LF clients *)
                  let has sub =
                    let ls = String.length sub and lt = String.length s in
                    let rec at i =
                      i + ls <= lt && (String.sub s i ls = sub || at (i + 1))
                    in
                    at 0
                  in
                  has "\r\n\r\n" || has "\n\n"
                in
                if found then Some s else go ())
  in
  go ()

let parse_request head =
  match String.split_on_char '\n' head with
  | [] -> None
  | first :: _ -> (
      let first = String.trim first in
      match String.split_on_char ' ' first with
      | meth :: path :: _ -> Some (meth, path)
      | _ -> None)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error _ -> ()
      | w -> go (off + w)
  in
  go 0

let respond fd ~status ~content_type body =
  let reason =
    match status with
    | 200 -> "OK"
    | 404 -> "Not Found"
    | 405 -> "Method Not Allowed"
    | 503 -> "Service Unavailable"
    | _ -> "Error"
  in
  write_all fd
    (Printf.sprintf
       "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
        Connection: close\r\n\r\n%s"
       status reason content_type (String.length body) body)

let openmetrics_content_type =
  "application/openmetrics-text; version=1.0.0; charset=utf-8"

let handle t fd =
  (match read_head fd with
  | None -> ()
  | Some head -> (
      match parse_request head with
      | None -> respond fd ~status:405 ~content_type:"text/plain" "bad request\n"
      | Some (meth, path) ->
          if meth <> "GET" then
            respond fd ~status:405 ~content_type:"text/plain"
              "GET only\n"
          else (
            Obs.Metrics.Counter.incr m_scrapes;
            match path with
            | "/metrics" ->
                respond fd ~status:200
                  ~content_type:openmetrics_content_type
                  (Obs.Openmetrics.render ())
            | "/healthz" ->
                let h = t.health () in
                respond fd
                  ~status:(if h.state = "serving" then 200 else 503)
                  ~content_type:"application/json"
                  (Obs.Jsonl.to_string (health_json h) ^ "\n")
            | _ ->
                respond fd ~status:404 ~content_type:"text/plain"
                  "routes: /metrics /healthz\n")));
  (try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Requests are tiny and responses are built in memory, so one
   sequential accept loop suffices; read_head's timeout bounds how
   long a slow client can hold it. *)
let accept_loop t =
  let rec loop () =
    if Atomic.get t.stopping then ()
    else
      match Unix.select [ t.listen_fd ] [] [] 0.25 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
      | [], _, _ -> loop ()
      | _ -> (
          match Unix.accept ~cloexec:true t.listen_fd with
          | fd, _ ->
              handle t fd;
              loop ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
          | exception Unix.Unix_error _ ->
              if Atomic.get t.stopping then () else loop ())
  in
  loop ()

let start ~health addr =
  let fd = Addr.listen addr in
  let t =
    {
      addr;
      bound = Unix.getsockname fd;
      listen_fd = fd;
      health;
      stopping = Atomic.make false;
      acceptor = None;
      stopped = false;
      stop_m = Mutex.create ();
    }
  in
  t.acceptor <- Some (Thread.create accept_loop t);
  t

let port t = match t.bound with Unix.ADDR_INET (_, p) -> Some p | _ -> None

let stop t =
  let fresh =
    Mutex.lock t.stop_m;
    let f = not t.stopped in
    t.stopped <- true;
    Mutex.unlock t.stop_m;
    f
  in
  if fresh then begin
    Atomic.set t.stopping true;
    Option.iter Thread.join t.acceptor;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    match t.addr with
    | Addr.Unix_sock path -> (
        try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
    | Addr.Tcp _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Probe client (the curl we don't have)                              *)
(* ------------------------------------------------------------------ *)

let get addr path =
  match
    let domain, sa = Addr.sockaddr addr in
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () ->
        try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.connect fd sa;
        write_all fd
          (Printf.sprintf "GET %s HTTP/1.0\r\nHost: elin\r\n\r\n" path);
        let buf = Buffer.create 4096 in
        let chunk = Bytes.create 4096 in
        let rec drain () =
          match Unix.read fd chunk 0 (Bytes.length chunk) with
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
          | 0 -> ()
          | n ->
              Buffer.add_subbytes buf chunk 0 n;
              drain ()
        in
        drain ();
        Buffer.contents buf)
  with
  | exception Unix.Unix_error (err, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))
  | exception Failure m -> Error m
  | raw -> (
      (* status line: HTTP/1.x CODE REASON *)
      let header_end =
        let rec find i =
          if i + 3 >= String.length raw then None
          else if String.sub raw i 4 = "\r\n\r\n" then Some (i + 4)
          else find (i + 1)
        in
        find 0
      in
      match header_end with
      | None -> Error "malformed HTTP response (no header terminator)"
      | Some body_at -> (
          match String.split_on_char ' ' (List.hd (String.split_on_char '\r' raw)) with
          | _http :: code :: _ -> (
              match int_of_string_opt code with
              | Some status ->
                  Ok
                    ( status,
                      String.sub raw body_at (String.length raw - body_at) )
              | None -> Error "malformed HTTP status line")
          | _ -> Error "malformed HTTP status line"))
