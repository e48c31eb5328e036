(* serve-closed: a closed loop with a fixed window of jobs in flight
   against a child [elin serve --domains 1 --test-specs] over a Unix
   socket.

   One process, one connection, one thread: it sends [window] jobs,
   then sends the next job each time a verdict comes back, so the
   server always has work queued and never idles between jobs.  A job's
   latency runs from its send to its verdict's receipt; by Little's law
   it is about [window] times the per-job cost of the whole path
   (client, socket, server threads, pool, checker).  A receiver that
   hears nothing for [idle_s] stops, and every unanswered job counts as
   failed. *)

open Elin_svc
open Elin_net

let window = 8
let idle_s = 5.
let jobs_per_session = 4000
let warm_jobs = 300
let setup_rounds = 3
let min_sessions = 3

type run = {
  latency_ms : float array;  (* answered jobs only *)
  send_us : float array;  (* time inside Client.send, when timed *)
  answered : int;
  wrong : int;  (* answered with a status or bound other than known *)
  wall_s : float;  (* first send -> last verdict *)
}

let ns_diff a b = Int64.to_float (Int64.sub a b)

(* [closed_loop cl items] — keep [window] of [items] in flight over
   [cl] until every verdict is in or the line goes quiet. *)
let closed_loop ?(time_send = false) cl (items : Corpus.item array) =
  let n = Array.length items in
  let index = Hashtbl.create n in
  Array.iteri (fun i it -> Hashtbl.replace index it.Corpus.job.Job.id i) items;
  let sent_at = Array.make n 0L and recv_at = Array.make n 0L in
  let send_ns = Array.make n 0. in
  let verdicts = Array.make n None in
  let next = ref 0 in
  let send_next () =
    if !next < n then begin
      let i = !next in
      incr next;
      sent_at.(i) <- Spans.now ();
      Client.send cl items.(i).Corpus.job;
      if time_send then send_ns.(i) <- ns_diff (Spans.now ()) sent_at.(i)
    end
  in
  let t0 = Spans.now () in
  let answered = ref 0 in
  (try
     for _ = 1 to window do
       send_next ()
     done;
     let rec receive () =
       if !answered < n then
         match Client.recv_idle cl ~idle_s with
         | `Verdict v -> (
           match Hashtbl.find_opt index v.Verdict.job_id with
           | Some i when verdicts.(i) = None ->
             recv_at.(i) <- Spans.now ();
             verdicts.(i) <- Some v;
             incr answered;
             send_next ();
             receive ()
           | _ -> receive ())
         | `Idle | `Eof | `Error _ -> ()
     in
     receive ()
   with Unix.Unix_error _ | Sys_error _ ->
     (* The connection broke: the unanswered jobs count as lost. *)
     ());
  if !answered < n then Client.shutdown cl;
  let latency = ref [] and wrong = ref 0 and last = ref t0 in
  Array.iteri
    (fun i v ->
      match v with
      | Some v ->
        latency := (ns_diff recv_at.(i) sent_at.(i) /. 1e6) :: !latency;
        if Int64.compare recv_at.(i) !last > 0 then last := recv_at.(i);
        if not (Corpus.answer_ok items.(i).Corpus.expect v) then incr wrong
      | None -> ())
    verdicts;
  {
    latency_ms = Array.of_list !latency;
    send_us = Array.init !next (fun i -> send_ns.(i) /. 1e3);
    answered = !answered;
    wrong = !wrong;
    wall_s = ns_diff !last t0 /. 1e9;
  }

(* The in-process rung: the same closed loop straight into a [Pool]
   with the server's settings.  Returns sojourn-minus-service (wait) and
   service ([wall_ms]) samples in us, latency in ms, the loop's wall in
   seconds, and the count of wrong or missing answers. *)
let pool_loop (items : Corpus.item array) =
  let n = Array.length items in
  let pool = Pool.create ~domains:1 ~queue_capacity:64 ~resolve:Load.test_resolve () in
  let submitted = Array.make n 0L and taken = Array.make n 0L in
  let verdicts = Array.make n None in
  let next = ref 0 in
  let submit_next () =
    if !next < n then begin
      let i = !next in
      incr next;
      submitted.(i) <- Spans.now ();
      Pool.submit pool { (items.(i).Corpus.job) with Job.seq = i }
    end
  in
  let t0 = Spans.now () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      for _ = 1 to window do
        submit_next ()
      done;
      for _ = 1 to n do
        match Pool.take_verdict pool with
        | Some v ->
          let i = v.Verdict.seq in
          taken.(i) <- Spans.now ();
          verdicts.(i) <- Some v;
          submit_next ()
        | None -> ()
      done);
  let wall_s = ns_diff (Spans.now ()) t0 /. 1e9 in
  let wait = ref [] and service = ref [] and latency = ref [] and bad = ref 0 in
  Array.iteri
    (fun i v ->
      match v with
      | Some v ->
        let sojourn_us = ns_diff taken.(i) submitted.(i) /. 1e3 in
        let service_us = v.Verdict.wall_ms *. 1e3 in
        wait := (sojourn_us -. service_us) :: !wait;
        service := service_us :: !service;
        latency := (sojourn_us /. 1e3) :: !latency;
        if not (Corpus.answer_ok items.(i).Corpus.expect v) then incr bad
      | None -> incr bad)
    verdicts;
  (Array.of_list !wait, Array.of_list !service, Array.of_list !latency, wall_s, !bad)

(* ------------------------------------------------------------------ *)
(* Set-up: corpus, server spawn + connect, warm-up                     *)
(* ------------------------------------------------------------------ *)

type server = { pid : int; client : Client.t }

let connect_with_retry addr =
  let deadline = Unix.gettimeofday () +. 20. in
  let rec go () =
    match Client.connect addr with
    | c -> c
    | exception (Unix.Unix_error _ as e) ->
      if Unix.gettimeofday () > deadline then raise e
      else begin
        Unix.sleepf 0.01;
        go ()
      end
  in
  go ()

let start_server ~elin ~sock =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let pid =
    Proc.spawn elin
      [ "serve"; "--listen"; "unix:" ^ sock; "--domains"; "1"; "--test-specs" ]
      ~log:(sock ^ ".log")
  in
  let addr = Addr.Unix_sock sock in
  match connect_with_retry addr with
  | client -> { pid; client }
  | exception e ->
    Proc.stop pid;
    raise e

let stop_server s =
  (try Client.close s.client with _ -> ());
  Proc.stop s.pid

(* A fresh server, warmed up by one closed loop over [warm]; warm-up
   answers are checked like any other. *)
let fresh_server ~elin ~sock warm =
  let srv = start_server ~elin ~sock in
  match closed_loop srv.client warm with
  | r when r.answered = Array.length warm && r.wrong = 0 -> srv
  | _ ->
    stop_server srv;
    failwith "perfbench: serve-closed warm-up lost or mis-answered jobs"

(* One set-up round: the warm-up jobs and one session's jobs, then a
   fresh warmed-up server.  Every session replays the same jobs against
   a fresh server, whose reuse cache starts empty, so no history is
   ever seen twice by one server. *)
let setup_round ~elin ~sock ~seed =
  let t0 = Unix.gettimeofday () in
  let n = warm_jobs + jobs_per_session in
  let all = Corpus.serve_jobs ~seed ~n in
  let warm = Array.sub all 0 warm_jobs and items = Array.sub all warm_jobs jobs_per_session in
  let srv = fresh_server ~elin ~sock warm in
  (Unix.gettimeofday () -. t0, srv, warm, items)

let setup ~elin ~sock ~seed =
  let rec rounds k acc =
    let dt, srv, warm, items = setup_round ~elin ~sock ~seed in
    if k = setup_rounds then (Quantile.median (Array.of_list (dt :: acc)), srv, warm, items)
    else begin
      stop_server srv;
      rounds (k + 1) (dt :: acc)
    end
  in
  rounds 1 []

(* Run [session] against fresh servers until [seconds] have passed and
   at least [min_sessions] have run; the first uses [srv].  Where the
   kernel happens to place a server's threads shifts its speed for its
   whole life, so each end-to-end figure is the median over sessions. *)
let sessions ~elin ~sock ~seconds ~warm srv session =
  let current = ref srv in
  Fun.protect ~finally:(fun () -> stop_server !current) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  let rec go k acc =
    if k >= min_sessions && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
    else begin
      if k > 0 then begin
        stop_server !current;
        current := fresh_server ~elin ~sock warm
      end;
      go (k + 1) (session !current :: acc)
    end
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* The workload                                                        *)
(* ------------------------------------------------------------------ *)

let failed_of (r : run) n = n - r.answered + r.wrong

let summary xs = Quantile.summarize (if Array.length xs = 0 then [| 0. |] else xs)

let e2e ~elin ~sock ~seed ~seconds =
  let setup_s, srv, warm, items = setup ~elin ~sock ~seed in
  let per = Array.length items in
  let runs =
    sessions ~elin ~sock ~seconds ~warm srv (fun s ->
        let r = closed_loop s.client items in
        (r, Proc.vm_hwm_mb ~pid:s.pid ()))
  in
  let n = per * List.length runs in
  let failed = List.fold_left (fun a (r, _) -> a + failed_of r per) 0 runs in
  let med f = Quantile.median (Array.of_list (List.map f runs)) in
  let q (r, _) = summary r.latency_ms in
  let all = Array.concat (List.map (fun (r, _) -> r.latency_ms) runs) in
  {
    Out.correct = failed = 0;
    attempted = n;
    failed;
    metrics =
      [
        Out.m "setup_s" "s" setup_s;
        Out.m "latency_p50_ms" "ms" (med (fun x -> (q x).Quantile.p50));
        Out.m "throughput_per_s" "1/s" (med (fun (r, _) -> float_of_int r.answered /. r.wall_s));
        Out.m "peak_rss_mb" "MB" (med snd);
      ];
    notes =
      Printf.sprintf "serve-closed: window %d, %d sessions x %d jobs, seed %d" window
        (List.length runs) per seed
      :: List.map
           (fun ((r, _) as x) ->
             let s = q x in
             Printf.sprintf "  session: serve_p50_ms %.4g serve_p99_ms %.4g jobs_per_s %.1f (n=%d)"
               s.Quantile.p50 s.Quantile.p99
               (float_of_int r.answered /. r.wall_s)
               s.Quantile.n)
           runs
      @ [
          Printf.sprintf "  serve_p99_ms %.4g (median over sessions; printed, not gated)"
            (med (fun x -> (q x).Quantile.p99));
          "  over all samples: " ^ Quantile.describe ~unit:"ms" (summary all);
        ];
  }

(* One traced cycle over the session's jobs: the untraced socket loop,
   the socket loop again on a fresh server with [Client.send] timed,
   the direct rung and the pool rung. *)
type cycle = {
  plain : run;
  socket : run;
  direct : Direct.tally;
  pool_wait : float array;
  pool_service : float array;
  pool_latency : float array;
  pool_wall_s : float;
  pool_bad : int;
  frame_ns : float;
}

(* The traced run: cycles until [seconds] have passed; per-job figures
   are over every cycle's jobs. *)
let traced ~elin ~sock ~seed ~seconds =
  let _, srv, warm, items = setup ~elin ~sock ~seed in
  let per = Array.length items in
  let spans = Spans.create () in
  let current = ref srv in
  let t0 = Unix.gettimeofday () in
  let cycles =
    Fun.protect ~finally:(fun () -> stop_server !current) @@ fun () ->
    let rec go acc =
      if acc <> [] && Unix.gettimeofday () -. t0 >= seconds then List.rev acc
      else begin
        if acc <> [] then begin
          stop_server !current;
          current := fresh_server ~elin ~sock warm
        end;
        let plain = closed_loop !current.client items in
        (* A fresh server for the traced loop, so that both socket
           loops see a server of the same age. *)
        stop_server !current;
        current := fresh_server ~elin ~sock warm;
        let socket = closed_loop ~time_send:true !current.client items in
        let direct = Direct.run spans ~resolve:Load.test_resolve items in
        let pool_wait, pool_service, pool_latency, pool_wall_s, pool_bad = pool_loop items in
        (* Framing alone: encode every payload and decode it back. *)
        let f0 = Spans.now () in
        let dec = Frame.decoder () in
        Array.iter
          (fun it ->
            Frame.feed_string dec (Frame.encode it.Corpus.line);
            match Frame.next dec with
            | `Frame _ -> ()
            | _ -> failwith "perfbench: frame round trip")
          items;
        let frame_ns = ns_diff (Spans.now ()) f0 in
        go
          ({ plain; socket; direct; pool_wait; pool_service; pool_latency; pool_wall_s; pool_bad;
             frame_ns }
          :: acc)
      end
    in
    go []
  in
  Spans.write spans "_perfbench/serve-closed.spans.jsonl";
  let k = List.length cycles in
  let jobs = float_of_int (k * per) in
  let cat f = Array.concat (List.map f cycles) in
  let sum f = List.fold_left (fun a c -> a +. f c) 0. cycles in
  let isum f = List.fold_left (fun a c -> a + f c) 0 cycles in
  let per_job name = Spans.self_ns spans name /. jobs /. 1e3 in
  let mean xs = Array.fold_left ( +. ) 0. xs /. float_of_int (max 1 (Array.length xs)) in
  (* The ladder in per-job wall time (1 / throughput): the direct rung's
     CPU time, then the pool and socket loops' wall over their jobs. *)
  let direct_us =
    per_job "history.parse" +. per_job "svc.codec" +. per_job "checker.prepare"
    +. per_job "checker.check"
  in
  let pool_us = sum (fun c -> c.pool_wall_s) *. 1e6 /. jobs in
  let socket_us = sum (fun c -> c.socket.wall_s) *. 1e6 /. jobs in
  let plain_us = sum (fun c -> c.plain.wall_s) *. 1e6 /. jobs in
  let sock_q = summary (cat (fun c -> c.socket.latency_ms)) in
  let pool_q = summary (cat (fun c -> c.pool_latency)) in
  let plain_q = summary (cat (fun c -> c.plain.latency_ms)) in
  let service = summary (cat (fun c -> c.pool_service)) in
  let wait = summary (cat (fun c -> c.pool_wait)) in
  let nodes = isum (fun c -> c.direct.Direct.nodes) in
  let memo_hits = isum (fun c -> c.direct.Direct.memo_hits) in
  let failed =
    isum (fun c ->
        failed_of c.plain per + failed_of c.socket per + c.pool_bad + c.direct.Direct.wrong)
  in
  let bytes = Array.fold_left (fun acc it -> acc + String.length it.Corpus.line) 0 items in
  let check_ns = Spans.self_ns spans "checker.check" in
  {
    Out.correct = failed = 0;
    attempted = 4 * k * per;
    failed;
    metrics =
      Out.layers
        [
          ("history.parse_us", per_job "history.parse");
          ("svc.codec_us", per_job "svc.codec");
          ("checker.prepare_us", per_job "checker.prepare");
          ("checker.check_us", per_job "checker.check");
          ("checker.nodes", float_of_int nodes /. jobs);
          ("checker.ns_per_node", check_ns /. float_of_int (max 1 nodes));
          ( "checker.memo_hit_ratio",
            float_of_int memo_hits /. float_of_int (max 1 (nodes + memo_hits)) );
          ("checker.words_per_job", sum (fun c -> c.direct.Direct.words) /. jobs);
          ("svc.shared_history_frac", Corpus.shared_history_frac items);
          ("svc.pool_service_us_p50", service.Quantile.p50);
          ("svc.pool_service_us_p99", service.Quantile.p99);
          ("svc.pool_wait_us_p50", wait.Quantile.p50);
          ("svc.pool_wait_us_p99", wait.Quantile.p99);
          ("svc.pool_self_us", pool_us -. direct_us);
          ("net.overhead_us_p50", (sock_q.Quantile.p50 -. pool_q.Quantile.p50) *. 1e3);
          ("net.overhead_us_p99", (sock_q.Quantile.p99 -. pool_q.Quantile.p99) *. 1e3);
          ("net.self_us", socket_us -. pool_us);
          ("net.client_send_us", mean (cat (fun c -> c.socket.send_us)));
          ( "net.frame_ns_per_kb",
            sum (fun c -> c.frame_ns) /. (float_of_int (k * bytes) /. 1024.) );
          ("trace_overhead_frac", sock_q.Quantile.p50 /. plain_q.Quantile.p50 -. 1.);
          (* direct + pool + net sums to the traced socket loop's
             per-job wall by construction; the residual is what the
             untraced loop does not account for. *)
          ("ladder.residual_frac", (plain_us -. socket_us) /. plain_us);
        ];
    notes =
      [
        Printf.sprintf
          "serve-closed traced: %d cycles x %d jobs per rung; per-job us: direct %.1f, pool %.1f, \
           socket %.1f (untraced %.1f)"
          k per direct_us pool_us socket_us plain_us;
      ];
  }
