(** Listen/connect addresses for the socket service.

    Textual forms accepted by {!of_string}:
    - ["unix:PATH"] — Unix-domain socket at [PATH];
    - ["tcp:HOST:PORT"] — TCP;
    - a bare string containing ['/'] — shorthand for [unix:];
    - ["HOST:PORT"] — shorthand for [tcp:];
    - a bare port number — TCP on [127.0.0.1]. *)

type t = Unix_sock of string | Tcp of string * int

val of_string : string -> (t, string) result

(** Canonical textual form ([unix:…] / [tcp:…]); round-trips through
    {!of_string}. *)
val to_string : t -> string

(** Socket domain + address for bind/connect.  Resolves TCP host names
    via [gethostbyname].
    @raise Failure if the host does not resolve. *)
val sockaddr : t -> Unix.socket_domain * Unix.sockaddr

(** [listen addr] — a bound, listening socket: the one listener
    constructor behind [Server] and [Telemetry].  A stale Unix-socket
    path (no listener behind it) is reclaimed; a live one raises
    [Failure].  TCP sets [SO_REUSEADDR]; port 0 binds an ephemeral
    port.  The socket is closed if binding fails.
    @raise Unix.Unix_error on bind problems. *)
val listen : t -> Unix.file_descr
