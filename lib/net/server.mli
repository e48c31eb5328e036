(** Concurrent socket front-end for the checking service: a listener
    (Unix-domain or TCP) speaking {!Frame}-delimited {!Elin_obs.Jsonl}
    job/verdict lines, feeding the existing {!Elin_svc.Pool}.

    {2 Shape}

    {v
    clients ──► loop thread: one select over the listen fd, the wake
                  │          pipe and every connection fd, no timeout
                  │ accept; read → Frame.decoder → Job, rewrite id
                  ▼
              [Pool: bounded job channel]  ← try_submit; full ⇒ stop
                  │ worker domains               reading that conn
                  ▼
              bridge thread: take_verdict → queue → byte on wake pipe
                  │
                  ▼
              loop thread: route by id → conn reply Buffer → one write
    v}

    The loop thread owns every socket and every connection's state:
    its decoder, its reply buffer (every verdict routed in one wakeup
    goes out in one write; a short write waits for the fd to turn
    writable) and its count of jobs in flight.  The bridge thread
    blocks in {!Elin_svc.Pool.take_verdict} and wakes the loop through
    a self-pipe.  Two threads, however many connections; a connection
    whose descriptor [select(2)] cannot watch (past [FD_SETSIZE],
    1024) is refused.

    {2 Sessions and pipelining}

    Each connection may pipeline any number of job frames without
    waiting; verdicts come back {e in completion order}, matched by the
    job's [id] (the server tags ids internally for routing and
    restores the caller's id on the way out).  Callers that need
    submission order sort by their own ids — exactly the
    {!Elin_svc.Pool.run_batch} contract, minus the sorting.

    {2 Admission}

    The pool's bounded job channel is the only queue.  Under
    [`Block] admission (default) a job that finds the queue full waits,
    with the frames decoded after it, and the connection is not read
    until a verdict frees a slot — so backpressure propagates to the
    client's socket writes.  Under [`Busy] admission a full queue
    refuses the job immediately with a [busy] verdict, and the client
    may retry.  A client that stops reading while more than 1024 of
    its verdicts wait to be written is evicted (its socket closed,
    [net.dropped] counted), rather than buffered for without bound.

    {2 Containment and drain}

    Malformed JSON in a well-framed payload costs a [bad_job] verdict
    and the session continues; a framing violation (oversized length
    prefix, EOF mid-frame) is unrecoverable, so the session answers
    what it already accepted and closes.  Any other failure while
    handling a connection closes that connection only.  A crashing
    job costs a [failed] verdict (the pool's containment); the server
    survives.  {!stop} drains gracefully: it closes the listener
    (unlinking a Unix-socket path) and stops reading; each connection
    closes once every job it had admitted is answered and flushed;
    then the pool shuts down — no accepted job is left unanswered. *)

open Elin_spec

type admission = Block | Busy

type t

(** [start addr] — bind, listen, and serve until {!stop}.

    - [domains], [queue_capacity], [default_budget],
      [default_timeout_ms], [resolve] configure the underlying {!Elin_svc.Pool}
      (same defaults).  Verdicts the server answers itself ([busy],
      framing and parse errors) are counted with {!Elin_svc.Pool.record}, so
      the [svc.*] metrics cover every reply.
    - [admission] — see above (default [Block]).
    - [max_frame] bounds accepted frame payloads.
    - [stats] appends [wall_ms] to verdict lines (default false, for
      byte-identical parity with [elin batch]).

    The listener comes from {!Addr.listen}: a stale Unix-socket path
    is reclaimed, a live one raises [Failure].  TCP port 0 binds an
    ephemeral port — read it back with {!port}. *)
val start :
  ?domains:int ->
  ?queue_capacity:int ->
  ?default_budget:int ->
  ?default_timeout_ms:int ->
  ?resolve:(string -> Spec.t) ->
  ?admission:admission ->
  ?max_frame:int ->
  ?stats:bool ->
  Addr.t ->
  t

(** Actual TCP port (after binding port 0); [None] for Unix sockets. *)
val port : t -> int option

(** Connections currently open. *)
val connections : t -> int

(** Pool jobs queued / verdicts not yet routed by the loop — a
    stuck-pipeline diagnostic surface (see
    {!Elin_svc.Pool.queue_depth}). *)
val queue_depth : t -> int

val output_depth : t -> int

(** Graceful drain, blocking until complete (see module doc).
    Idempotent.  Unlinks the Unix socket path. *)
val stop : t -> unit
