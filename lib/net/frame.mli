(** Length-prefixed framing for the socket job/verdict protocol.

    A frame is a 4-byte big-endian unsigned payload length followed by
    exactly that many payload bytes; the payload is one [Obs.Jsonl]
    job or verdict line (no trailing newline).  Framing is
    self-delimiting, so pipelined frames need no sentinel and payloads
    may contain anything, including newlines.

    The decoder is incremental and pure with respect to I/O: callers
    {!feed} it raw byte chunks (in any split) and poll {!next} for
    complete frames.  A frame whose declared length exceeds the
    decoder's limit is a {e protocol error}: the stream cannot be
    resynchronized past an untrusted length, so the decoder latches
    the error and every later {!next} returns it.  Garbage bytes are
    indistinguishable from a (possibly huge) length prefix — they
    surface as an oversized frame or as a payload that fails JSON
    parsing one layer up; neither can crash the decoder. *)

(** Default per-frame payload limit: 16 MiB. *)
val default_max_frame : int

(** [encode payload] — the wire bytes of one frame.
    @raise Invalid_argument on payloads above 2^32 - 1 bytes. *)
val encode : string -> string

type decoder

(** [decoder ()] — fresh decoder; [max_frame] bounds accepted payload
    lengths (default {!default_max_frame}). *)
val decoder : ?max_frame:int -> unit -> decoder

(** Append raw bytes ([off]/[len] range).  Bytes fed after a latched
    error are dropped. *)
val feed : decoder -> bytes -> int -> int -> unit

(** [feed_string d s] — convenience whole-string {!feed}. *)
val feed_string : decoder -> string -> unit

(** Next complete frame, if the buffered bytes hold one.  [`Error] is
    latched: once returned, the decoder never yields another frame. *)
val next : decoder -> [ `Frame of string | `Awaiting | `Error of string ]

(** Buffered bytes not yet returned as frames — nonzero at EOF means
    the peer died mid-frame. *)
val pending : decoder -> int

(** {2 Blocking helpers over file descriptors} *)

(** [write_frame fd payload] — {!encode} and write fully (handles
    short writes and EINTR).  Unix errors propagate. *)
val write_frame : Unix.file_descr -> string -> unit

(** [read_frame fd decoder scratch] — block until one frame, EOF at a
    frame boundary, or a protocol error (oversized frame, EOF
    mid-frame).  [scratch] is the caller's read buffer. *)
val read_frame :
  Unix.file_descr ->
  decoder ->
  bytes ->
  [ `Frame of string | `Eof | `Error of string ]

(** [read_frame_idle fd decoder scratch ~idle_s] — like {!read_frame},
    but returns [`Idle] if no bytes arrive for [idle_s] seconds.  The
    deadline resets on every received byte, so it bounds silence, not
    total transfer time.  The decoder is untouched by [`Idle]; the
    caller may retry. *)
val read_frame_idle :
  Unix.file_descr ->
  decoder ->
  bytes ->
  idle_s:float ->
  [ `Frame of string | `Eof | `Error of string | `Idle ]
