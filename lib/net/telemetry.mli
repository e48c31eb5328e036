(** Live telemetry endpoint for [elin serve]: a minimal HTTP/1.0
    responder (GET only, [Connection: close]) serving

    - [/metrics] — OpenMetrics text exposition of the process-wide
      {!Elin_obs.Metrics} registry ({!Elin_obs.Openmetrics});
    - [/healthz] — JSON [{"status","queue","conns","workers"}] with
      status 200 while serving and 503 once draining.

    {b Security}: there is no auth, no TLS, and no rate limiting —
    bind it to loopback (or a unix socket) unless the network is
    trusted.  A slow or hostile client can hold the single accept
    loop for at most the 2 s head-read timeout. *)

type health = {
  state : string;  (** ["serving"] or ["draining"] *)
  queue_depth : int;
  connections : int;
  workers : int;
}

type t

(** [start ~health addr] — bind, listen ({!Addr.listen}: a live
    Unix-socket path, such as a running server's, raises [Failure]
    and is left alone), and serve on a background thread.  [health]
    is sampled per [/healthz] request.
    @raise Unix.Unix_error / Failure on bind problems. *)
val start : health:(unit -> health) -> Addr.t -> t

(** Bound TCP port ([None] for unix sockets) — for [tcp:HOST:0]. *)
val port : t -> int option

(** Stop accepting, join the acceptor, close (and unlink) the socket.
    Idempotent. *)
val stop : t -> unit

(** [get addr path] — one-shot HTTP/1.0 GET (the probe behind
    [elin probe]; there is no curl in the CI image).  Returns
    [(status, body)]. *)
val get : Addr.t -> string -> (int * string, string) result
