type t = Unix_sock of string | Tcp of string * int

let drop_prefix ~prefix s =
  let n = String.length prefix in
  String.sub s n (String.length s - n)

let is_digits s =
  s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s

let tcp_of_host_port s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "address %S: expected HOST:PORT" s)
  | Some i ->
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      if host = "" then Error (Printf.sprintf "address %S: empty host" s)
      else if not (is_digits port) then
        Error (Printf.sprintf "address %S: bad port %S" s port)
      else
        let p = int_of_string port in
        (* Port 0 is legal: binding it asks the kernel for an
           ephemeral port (read back with Server.port /
           Telemetry.port); connecting to it is refused by connect. *)
        if p > 65535 then
          Error (Printf.sprintf "address %S: port out of range" s)
        else Ok (Tcp (host, p))

let of_string s =
  if s = "" then Error "empty address"
  else if String.starts_with ~prefix:"unix:" s then
    let p = drop_prefix ~prefix:"unix:" s in
    if p = "" then Error "unix: address with empty path" else Ok (Unix_sock p)
  else if String.starts_with ~prefix:"tcp:" s then
    tcp_of_host_port (drop_prefix ~prefix:"tcp:" s)
  else if String.contains s '/' then Ok (Unix_sock s)
  else if is_digits s then Ok (Tcp ("127.0.0.1", int_of_string s))
  else tcp_of_host_port s

let to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let sockaddr = function
  | Unix_sock p -> (Unix.PF_UNIX, Unix.ADDR_UNIX p)
  | Tcp (host, port) ->
      let ip =
        try Unix.inet_addr_of_string host
        with _ -> (
          try (Unix.gethostbyname host).Unix.h_addr_list.(0)
          with _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      (Unix.PF_INET, Unix.ADDR_INET (ip, port))

let listen addr =
  let domain, sa = sockaddr addr in
  (match addr with
  | Unix_sock path when Sys.file_exists path ->
      (* A stale path (no listener behind it) is reclaimable; a live
         server is a configuration error, not something to unlink. *)
      let probe = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let live =
        try
          Unix.connect probe sa;
          true
        with Unix.Unix_error _ -> false
      in
      (try Unix.close probe with Unix.Unix_error _ -> ());
      if live then
        failwith (Printf.sprintf "address %s already in use" (to_string addr))
      else Unix.unlink path
  | _ -> ());
  let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Tcp _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
  | Unix_sock _ -> ());
  (try
     Unix.bind fd sa;
     Unix.listen fd 64
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd
