(* Socket front-end: one loop thread owns every socket, one bridge
   thread carries the pool's verdicts to it.  See server.mli for the
   shape, admission and drain. *)

module Obs = Elin_obs
open Elin_svc

type admission = Block | Busy

(* Observability: accepts/frames/verdicts counters, open-connection
   gauge, and a server-side per-job latency histogram (enqueue →
   verdict routed), all under the [net.] prefix. *)
let m_accepts = Obs.Metrics.counter "net.accepts"
let m_frames = Obs.Metrics.counter "net.frames"
let m_replies = Obs.Metrics.counter "net.replies"
let m_busy = Obs.Metrics.counter "net.busy"
let m_dropped = Obs.Metrics.counter "net.dropped"
let g_conns = Obs.Metrics.gauge "net.conns"
let h_latency = Obs.Metrics.histogram "net.latency_us"

(* A client that stops reading is evicted once this many verdicts
   wait for it, rather than buffered for without bound. *)
let evict_after = 1024

(* A connection is owned by the loop thread; no other thread touches it. *)
type conn = {
  cid : int;
  fd : Unix.file_descr;  (* non-blocking *)
  dec : Frame.decoder;
  out : Buffer.t;  (* framed replies; the first [sent] bytes are written *)
  mutable sent : int;
  ends : int Queue.t;  (* end offsets in [out] of unwritten replies *)
  g_outbox : Obs.Metrics.Gauge.t;
      (* unwritten replies, lane-hashed into a bounded set of gauge
         names (net.outbox.c<cid mod 8>) so a long-lived server cannot
         grow the registry without bound *)
  mutable frames : int;  (* frames decoded: the next frame's seq *)
  mutable in_flight : int;  (* admitted to the pool, not yet answered *)
  mutable held : Job.t option;
      (* Block admission met a full pool: this job waits, and the
         connection is not read, until a verdict frees a slot *)
  mutable reading : bool;  (* false after EOF, a framing error, or stop *)
  mutable closed : bool;
}

(* An admitted job, by internal id, for routing its verdict and for
   the net.job span and latency histogram. *)
type admitted = {
  conn : conn;
  orig : string;
  ts : int64;
  trace : string option;
}

type server = {
  addr : Addr.t;
  bound : Unix.sockaddr;
  listen_fd : Unix.file_descr;
  pool : Pool.t;
  admission : admission;
  stats : bool;
  max_frame : int;
  wake_r : Unix.file_descr;  (* self-pipe: a byte wakes the loop *)
  wake_w : Unix.file_descr;
  verdicts : Verdict.t Queue.t;  (* bridge → loop, under [verdicts_m] *)
  verdicts_m : Mutex.t;
  n_conns : int Atomic.t;  (* read by the telemetry thread *)
  stopping : bool Atomic.t;
  (* Owned by the loop thread. *)
  conns : (Unix.file_descr, conn) Hashtbl.t;
  jobs : (string, admitted) Hashtbl.t;
  rbuf : Bytes.t;
  mutable next_cid : int;
}

type t = { srv : server; loop : Thread.t; bridge : Thread.t }

(* The pool routes verdicts back by nothing but the verdict itself, so
   the connection and per-connection sequence ride inside the id:
   "<cid>.<k>|<original id>", unique per server. *)
let internal_id cid k id = Printf.sprintf "%d.%d|%s" cid k id

let wake srv =
  (* A full pipe already holds a pending wakeup. *)
  try ignore (Unix.single_write_substring srv.wake_w "x" 0 1)
  with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Replies                                                            *)
(* ------------------------------------------------------------------ *)

let reply c line =
  Buffer.add_string c.out (Frame.encode line);
  Queue.push (Buffer.length c.out) c.ends

(* A verdict the server answers itself. *)
let answer srv c (v : Verdict.t) =
  Pool.record v;
  Obs.Metrics.Counter.incr m_replies;
  reply c (Verdict.to_line ~stats:srv.stats v)

let local_verdict ?(status = Verdict.Bad_job "") ?check ~id ~seq () =
  {
    Verdict.job_id = id;
    seq;
    check;
    status;
    min_t = None;
    nodes = 0;
    memo_hits = 0;
    wall_ms = 0.;
  }

(* Best-effort id for an unparseable job payload: its "id" field if
   the JSON is readable at all, else a frame-indexed placeholder. *)
let id_hint payload k =
  match Obs.Jsonl.str_mem "id" (Obs.Jsonl.of_string payload) with
  | Some id -> id
  | None | (exception Obs.Jsonl.Parse_error _) -> Printf.sprintf "frame-%d" k

(* One write of everything pending; what the socket does not take
   waits for the fd to turn writable. *)
let flush c =
  let len = Buffer.length c.out - c.sent in
  if len > 0 then begin
    let ts = Obs.Trace.begin_ns () in
    let n =
      try Unix.write_substring c.fd (Buffer.sub c.out c.sent len) 0 len
      with Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> 0
    in
    Obs.Trace.complete ~cat:"net" ~ts "net.encode"
      ~args:[ ("conn", Obs.Jsonl.Int c.cid); ("bytes", Obs.Jsonl.Int n) ];
    c.sent <- c.sent + n;
    while (not (Queue.is_empty c.ends)) && Queue.peek c.ends <= c.sent do
      ignore (Queue.pop c.ends)
    done;
    if c.sent = Buffer.length c.out then begin
      Buffer.clear c.out;
      c.sent <- 0
    end;
    if Obs.Metrics.on () then
      Obs.Metrics.Gauge.set c.g_outbox (Queue.length c.ends)
  end

(* ------------------------------------------------------------------ *)
(* Connections                                                        *)
(* ------------------------------------------------------------------ *)

(* Verdicts still due to a closed connection are dropped on arrival. *)
let close_conn srv c =
  if not c.closed then begin
    c.closed <- true;
    Hashtbl.remove srv.conns c.fd;
    Atomic.decr srv.n_conns;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    if Obs.Metrics.on () then Obs.Metrics.Gauge.add g_conns (-1)
  end

(* Whatever goes wrong while handling one connection costs that
   connection, never the loop. *)
let guard srv c f = try f () with _ -> close_conn srv c

let add_conn srv fd =
  let cid = srv.next_cid in
  srv.next_cid <- cid + 1;
  (match srv.addr with
  | Addr.Tcp _ -> (
      try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ())
  | Addr.Unix_sock _ -> ());
  Hashtbl.replace srv.conns fd
    {
      cid;
      fd;
      dec = Frame.decoder ~max_frame:srv.max_frame ();
      out = Buffer.create 4096;
      sent = 0;
      ends = Queue.create ();
      g_outbox =
        Obs.Metrics.gauge (Printf.sprintf "net.outbox.c%d" (cid mod 8));
      frames = 0;
      in_flight = 0;
      held = None;
      reading = true;
      closed = false;
    };
  Atomic.incr srv.n_conns;
  Obs.Metrics.Counter.incr m_accepts;
  Obs.Recorder.note "net.accept" ~args:[ ("conn", Obs.Jsonl.Int cid) ];
  if Obs.Metrics.on () then Obs.Metrics.Gauge.add g_conns 1;
  Obs.Trace.instant ~cat:"net" "net.accept"
    ~args:[ ("conn", Obs.Jsonl.Int cid) ]

let rec accept srv =
  match Unix.accept ~cloexec:true srv.listen_fd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
      (* A descriptor select cannot watch (past FD_SETSIZE) is refused
         here rather than failing every later select. *)
      (match
         Unix.set_nonblock fd;
         Unix.select [ fd ] [] [] 0.
       with
      | _ -> add_conn srv fd
      | exception Unix.Unix_error _ -> (
          try Unix.close fd with Unix.Unix_error _ -> ()));
      accept srv

let admit srv c (job : Job.t) =
  let internal = internal_id c.cid job.Job.seq job.Job.id in
  let ts = Obs.Clock.now_ns () in
  if Pool.try_submit srv.pool { job with Job.id = internal } then begin
    Hashtbl.replace srv.jobs internal
      { conn = c; orig = job.Job.id; ts; trace = job.Job.trace };
    c.in_flight <- c.in_flight + 1;
    Obs.Trace.instant ~cat:"net" "net.enqueue"
      ~args:
        [ ("id", Obs.Jsonl.Str job.Job.id); ("conn", Obs.Jsonl.Int c.cid) ]
  end
  else
    match srv.admission with
    | Block -> c.held <- Some job
    | Busy ->
        Obs.Metrics.Counter.incr m_busy;
        answer srv c
          (local_verdict ~status:Verdict.Busy ~check:job.Job.check
             ~id:job.Job.id ~seq:job.Job.seq ())

(* Admit decoded frames until the decoder runs dry or breaks, or the
   pool is full. *)
let rec decode srv c =
  if c.held = None then
    match Frame.next c.dec with
    | `Awaiting -> ()
    | `Error e ->
        (* Unrecoverable: the stream cannot be resynchronized.  Answer
           the broken frame, stop reading, and let the admitted jobs
           finish. *)
        let id = Printf.sprintf "frame-%d" c.frames in
        Obs.Recorder.note "net.protocol_error" ~id
          ~args:[ ("conn", Obs.Jsonl.Int c.cid); ("error", Obs.Jsonl.Str e) ];
        Obs.Recorder.dump ~reason:"protocol_error" ~job:id ();
        answer srv c
          (local_verdict
             ~status:(Verdict.Bad_job ("framing: " ^ e))
             ~id ~seq:c.frames ());
        c.reading <- false
    | `Frame payload ->
        let seq = c.frames in
        c.frames <- seq + 1;
        Obs.Metrics.Counter.incr m_frames;
        (match Job.of_line ~seq payload with
        | Error e ->
            answer srv c
              (local_verdict ~status:(Verdict.Bad_job e)
                 ~id:(id_hint payload seq) ~seq ())
        | Ok job -> admit srv c job);
        decode srv c

let on_readable srv c =
  match Unix.read c.fd srv.rbuf 0 (Bytes.length srv.rbuf) with
  | 0 ->
      c.reading <- false;
      if Frame.pending c.dec > 0 then
        answer srv c
          (local_verdict
             ~status:(Verdict.Bad_job "framing: connection closed mid-frame")
             ~id:(Printf.sprintf "frame-%d" c.frames)
             ~seq:c.frames ())
  | n ->
      let ts = Obs.Trace.begin_ns () in
      Frame.feed c.dec srv.rbuf 0 n;
      decode srv c;
      Obs.Trace.complete ~cat:"net" ~ts "net.decode"
        ~args:[ ("conn", Obs.Jsonl.Int c.cid); ("bytes", Obs.Jsonl.Int n) ]
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      ()

let retry srv c =
  match c.held with
  | None -> ()
  | Some job ->
      c.held <- None;
      admit srv c job;
      decode srv c

(* ------------------------------------------------------------------ *)
(* Verdicts: pool → bridge → loop                                     *)
(* ------------------------------------------------------------------ *)

let bridge srv =
  let rec go () =
    match Pool.take_verdict srv.pool with
    | None -> ()
    | Some v ->
        Mutex.lock srv.verdicts_m;
        let was_empty = Queue.is_empty srv.verdicts in
        Queue.push v srv.verdicts;
        Mutex.unlock srv.verdicts_m;
        if was_empty then wake srv;
        go ()
  in
  go ()

let route srv (v : Verdict.t) =
  match Hashtbl.find_opt srv.jobs v.Verdict.job_id with
  | None -> () (* foreign verdict; nothing to route *)
  | Some j ->
      Hashtbl.remove srv.jobs v.Verdict.job_id;
      let c = j.conn in
      c.in_flight <- c.in_flight - 1;
      let cid = Obs.Jsonl.Int c.cid in
      Obs.Trace.instant ~cat:"net" "net.dispatch"
        ~args:[ ("id", Obs.Jsonl.Str j.orig); ("conn", cid) ];
      if Obs.Trace.on () then
        Obs.Trace.complete ~cat:"net" ~ts:j.ts "net.job"
          ~args:
            ([ ("id", Obs.Jsonl.Str j.orig); ("conn", cid) ]
            @
            match j.trace with
            | Some t -> [ ("trace", Obs.Jsonl.Str t) ]
            | None -> []);
      if Obs.Metrics.on () then
        Obs.Metrics.Histogram.observe h_latency
          (Int64.to_int
             (Int64.div (Int64.sub (Obs.Clock.now_ns ()) j.ts) 1000L));
      if c.closed then Obs.Metrics.Counter.incr m_dropped
      else
        guard srv c (fun () ->
            Obs.Metrics.Counter.incr m_replies;
            Obs.Trace.instant ~cat:"net" "net.reply"
              ~args:[ ("id", Obs.Jsonl.Str j.orig); ("conn", cid) ];
            reply c
              (Verdict.to_line ~stats:srv.stats
                 { v with Verdict.job_id = j.orig }))

(* Route every verdict the bridge has queued; [true] if there was one.
   The pipe is drained first, so a verdict queued after the take
   always leaves a byte for the next select. *)
let take_verdicts srv =
  (try ignore (Unix.read srv.wake_r srv.rbuf 0 (Bytes.length srv.rbuf))
   with Unix.Unix_error _ -> ());
  let ready = Queue.create () in
  Mutex.lock srv.verdicts_m;
  Queue.transfer srv.verdicts ready;
  Mutex.unlock srv.verdicts_m;
  Queue.iter (route srv) ready;
  not (Queue.is_empty ready)

(* ------------------------------------------------------------------ *)
(* The loop                                                           *)
(* ------------------------------------------------------------------ *)

(* A connection is done once it reads no more and owes nothing. *)
let finished c =
  (not c.reading) && c.held = None && c.in_flight = 0
  && Buffer.length c.out = 0

let conn_list srv = Hashtbl.fold (fun _ c acc -> c :: acc) srv.conns []

(* Stop accepting and reading; what was admitted is still answered. *)
let begin_drain srv =
  (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  (match srv.addr with
  | Addr.Unix_sock path -> (
      try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | Addr.Tcp _ -> ());
  Hashtbl.iter (fun _ c -> c.reading <- false) srv.conns

(* Write what each connection is owed; evict a client that let too
   many replies pile up; close the connections that are done. *)
let settle srv =
  List.iter
    (fun c ->
      guard srv c (fun () ->
          flush c;
          if Queue.length c.ends > evict_after then begin
            Obs.Metrics.Counter.incr m_dropped;
            Obs.Recorder.note "net.evict"
              ~args:[ ("conn", Obs.Jsonl.Int c.cid) ];
            close_conn srv c
          end
          else if finished c then close_conn srv c))
    (conn_list srv)

(* One select over the wake pipe, the listener and every connection,
   with no timeout, and the handling of what it reports. *)
let step srv ~draining =
  let rd, wr =
    Hashtbl.fold
      (fun fd c (rd, wr) ->
        ( (if c.reading && c.held = None then fd :: rd else rd),
          if Buffer.length c.out > 0 then fd :: wr else wr ))
      srv.conns
      ((if draining then [ srv.wake_r ] else [ srv.wake_r; srv.listen_fd ]), [])
  in
  match Unix.select rd wr [] (-1.) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | rd, _, _ ->
      if List.mem srv.wake_r rd && take_verdicts srv then
        List.iter
          (fun c -> if c.held <> None then guard srv c (fun () -> retry srv c))
          (conn_list srv);
      List.iter
        (fun fd ->
          if fd = srv.listen_fd && not draining then accept srv
          else
            match Hashtbl.find_opt srv.conns fd with
            | Some c when c.reading && c.held = None ->
                guard srv c (fun () -> on_readable srv c)
            | _ -> ())
        rd

let run srv =
  let rec loop draining =
    if (not draining) && Atomic.get srv.stopping then begin_drain srv;
    let draining = draining || Atomic.get srv.stopping in
    settle srv;
    if not (draining && Hashtbl.length srv.conns = 0) then begin
      step srv ~draining;
      loop draining
    end
  in
  loop false

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                          *)
(* ------------------------------------------------------------------ *)

(* A peer may close while we still hold verdicts for it; the resulting
   write must surface as EPIPE, not kill the process. *)
let ignore_sigpipe =
  lazy
    (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
     with Invalid_argument _ -> ())

let start ?(domains = 1) ?(queue_capacity = 64) ?default_budget
    ?default_timeout_ms ?resolve ?(admission = Block)
    ?(max_frame = Frame.default_max_frame) ?(stats = false) addr =
  Lazy.force ignore_sigpipe;
  let listen_fd = Addr.listen addr in
  Unix.set_nonblock listen_fd;
  let pool =
    Pool.create ~queue_capacity ?default_budget ?default_timeout_ms ?resolve
      ~domains ()
  in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let srv =
    {
      addr;
      bound = Unix.getsockname listen_fd;
      listen_fd;
      pool;
      admission;
      stats;
      max_frame;
      wake_r;
      wake_w;
      verdicts = Queue.create ();
      verdicts_m = Mutex.create ();
      n_conns = Atomic.make 0;
      stopping = Atomic.make false;
      conns = Hashtbl.create 16;
      jobs = Hashtbl.create 256;
      rbuf = Bytes.create 65536;
      next_cid = 0;
    }
  in
  { srv; loop = Thread.create run srv; bridge = Thread.create bridge srv }

let port t =
  match t.srv.bound with Unix.ADDR_INET (_, p) -> Some p | _ -> None

let connections t = Atomic.get t.srv.n_conns
let queue_depth t = Pool.queue_depth t.srv.pool

let output_depth t =
  Mutex.lock t.srv.verdicts_m;
  let n = Queue.length t.srv.verdicts in
  Mutex.unlock t.srv.verdicts_m;
  Pool.output_depth t.srv.pool + n

(* The loop exits only once every connection is closed, and a
   connection closes only when it owes nothing, so no job of a live
   connection is outstanding when the pool shuts down. *)
let stop t =
  if Atomic.compare_and_set t.srv.stopping false true then begin
    wake t.srv;
    Thread.join t.loop;
    Fun.protect
      ~finally:(fun () ->
        Thread.join t.bridge;
        Unix.close t.srv.wake_r;
        Unix.close t.srv.wake_w)
      (fun () -> Pool.shutdown t.srv.pool)
  end
