module Obs = Elin_obs
open Elin_kernel
open Elin_spec
open Elin_history
open Elin_svc

(* ------------------------------------------------------------------ *)
(* Specs for the mix                                                  *)
(* ------------------------------------------------------------------ *)

let max_large_depth = 16

let load_reg_spec =
  let s = Register.spec ~domain:(List.init max_large_depth (fun i -> i + 1)) () in
  Spec.make ~name:"elin.load.reg" ~initial:(Spec.initial s)
    ~apply:(fun q op -> Spec.apply s q op)
    ~all_ops:(Spec.all_ops s)

let poison_spec =
  let fai = Faicounter.spec () in
  Spec.make ~name:"elin.poison" ~initial:(Spec.initial fai)
    ~apply:(fun _ _ -> failwith "elin.poison: poisoned checker")
    ~all_ops:(Spec.all_ops fai)

let test_resolve name =
  match name with
  | "elin.load.reg" -> load_reg_spec
  | "elin.poison" -> poison_spec
  | _ -> Pool.default_resolve name

(* ------------------------------------------------------------------ *)
(* Deterministic job generation                                       *)
(* ------------------------------------------------------------------ *)

type mix = { small : int; large : int; poison : int }

type cfg = {
  rate : float;
  jobs : int;
  seed : int;
  mix : mix;
  large_depth : int;
  budget : int option;
  timeout_ms : int option;
  idle_limit_s : float;
  trace_ids : bool;  (* stamp each job with a trace-context id *)
}

let default_cfg =
  {
    rate = 200.;
    jobs = 200;
    seed = 1;
    mix = { small = 8; large = 1; poison = 1 };
    large_depth = 6;
    budget = Some 500_000;
    timeout_ms = Some 2_000;
    idle_limit_s = 60.;
    trace_ids = false;
  }

let fai = Faicounter.spec ()

let small_history rng =
  Textio.to_string (Gen.linearizable rng ~spec:fai ~procs:2 ~n_ops:8 ())

(* The a1 unsat family at depth [d]: d pending writes of distinct
   values racing a reader whose final read contradicts the write
   order already observed — refuting it walks the pending-write
   interleavings, so cost grows ~ d!. *)
let unsat_history d =
  let events =
    List.init d (fun i -> Event.invoke ~proc:(i + 1) ~obj:0 (Op.write (i + 1)))
    @ List.concat_map
        (fun i ->
          [
            Event.invoke ~proc:0 ~obj:0 Op.read;
            Event.respond ~proc:0 ~obj:0 (Value.int (i + 1));
          ])
        (List.init d (fun i -> i))
    @ [
        Event.invoke ~proc:0 ~obj:0 Op.read;
        Event.respond ~proc:0 ~obj:0 (Value.int 1);
      ]
  in
  Textio.to_string (History.of_events events)

let gen_jobs cfg =
  let d = max 2 (min max_large_depth cfg.large_depth) in
  let rng = Prng.create cfg.seed in
  let total_w = max 1 (cfg.mix.small + cfg.mix.large + cfg.mix.poison) in
  let large_text = unsat_history d in
  List.init cfg.jobs (fun i ->
      let w = Prng.int rng total_w in
      let klass =
        if w < cfg.mix.small then `Small
        else if w < cfg.mix.small + cfg.mix.large then `Large
        else `Poison
      in
      let spec, history_text, tag =
        match klass with
        | `Small -> ("fetch&increment", small_history rng, "s")
        | `Large -> ("elin.load.reg", large_text, "l")
        | `Poison -> ("elin.poison", small_history rng, "p")
      in
      let id = Printf.sprintf "ld-%d-%s" i tag in
      {
        Job.id = id;
        seq = i;
        spec;
        check = Job.Linearizable;
        node_budget = cfg.budget;
        timeout_ms = cfg.timeout_ms;
        history_text;
        (* The job id doubles as the trace id: unique per run, and
           greppable on both sides of the wire. *)
        trace = (if cfg.trace_ids then Some id else None);
        parent = None;
      })

(* ------------------------------------------------------------------ *)
(* The open-loop run                                                  *)
(* ------------------------------------------------------------------ *)

type outcome = {
  target_per_s : float;
  jobs : int;
  answered : int;
  pass : int;
  violations : int;
  busy : int;
  errors : int;
  exhausted : int;
  wall_s : float;
  achieved_per_s : float;
  p50_us : float;
  p99_us : float;
  p999_us : float;
  max_us : float;
}

let run addr cfg =
  if cfg.rate <= 0. then invalid_arg "Load.run: rate must be > 0";
  if cfg.jobs < 1 then invalid_arg "Load.run: jobs must be >= 1";
  let jobs = Array.of_list (gen_jobs cfg) in
  let n = Array.length jobs in
  let index_of_id = Hashtbl.create n in
  Array.iteri (fun i j -> Hashtbl.replace index_of_id j.Job.id i) jobs;
  let hist = Obs.Metrics.Histogram.create () in
  let cl = Client.connect addr in
  Fun.protect ~finally:(fun () -> Client.close cl) @@ fun () ->
  let period_ns = 1e9 /. cfg.rate in
  let t0 = Obs.Clock.now_ns () in
  let sched i =
    Int64.add t0 (Int64.of_float (float_of_int i *. period_ns))
  in
  let sent = Atomic.make 0 in
  let sender_dead = Atomic.make false in
  (* Sender: fire job i at its scheduled instant, open-loop.  A send
     that blocks (server backpressure) delays later sends past their
     schedule; their latencies, measured from the schedule, then
     include that stall — exactly what open-loop is for.

     [sent] is bumped BEFORE the write.  The receiver's completion
     check reads [sent]; if the count trailed the write, the verdict
     for the final job could arrive (whole loopback round trip inside
     the sender's preemption window — routinely observed on one core)
     while [sent] still read n-1, and the receiver, seeing itself
     unfinished, would park in a [recv] nothing will ever satisfy.
     Counting first makes "a verdict arrived" imply "its send was
     counted", so the check can never under-read. *)
  let sender =
    Thread.create
      (fun () ->
        try
          for i = 0 to n - 1 do
            let target = sched i in
            let now = Obs.Clock.now_ns () in
            if Int64.compare now target < 0 then
              Thread.delay
                (Int64.to_float (Int64.sub target now) /. 1e9);
            Atomic.incr sent;
            Client.send cl jobs.(i)
          done
        with _ ->
          (* The optimistically counted job never fully left (the
             frame is at best partial, so no verdict can come back
             for it): un-count it, or [finished] would wait for it
             forever. *)
          Atomic.decr sent;
          Atomic.set sender_dead true)
      ()
  in
  let answered = ref 0 in
  let pass = ref 0 in
  let violations = ref 0 in
  let busy = ref 0 in
  let errors = ref 0 in
  let exhausted = ref 0 in
  let failure = ref None in
  let finished () =
    let s = Atomic.get sent in
    (Atomic.get sender_dead || s = n) && !answered >= s
  in
  (* Watchdog: a lost verdict anywhere in the pipeline would otherwise
     park this loop in [recv] forever with every thread idle — the
     worst possible failure mode for a CI gate.  On silence, report
     exactly how far the pipeline got (the [net.*] counters are
     process-wide, so they localize the loss when the server is
     in-process, as in bench B8). *)
  let idle_diagnosis () =
    let counter name =
      match Obs.Metrics.find name with
      | Some (Obs.Metrics.Counter_v n) -> string_of_int n
      | _ -> "?"
    in
    Printf.sprintf
      "receiver idle for %gs: sent=%d answered=%d (proc-wide: net.frames=%s \
       net.replies=%s net.dropped=%s net.busy=%s)"
      cfg.idle_limit_s (Atomic.get sent) !answered (counter "net.frames")
      (counter "net.replies") (counter "net.dropped") (counter "net.busy")
  in
  while not (finished ()) && !failure = None do
    match Client.recv_idle cl ~idle_s:cfg.idle_limit_s with
    | `Idle -> failure := Some (idle_diagnosis ())
    | `Verdict v -> (
        match Hashtbl.find_opt index_of_id v.Verdict.job_id with
        | None ->
            failure :=
              Some
                (Printf.sprintf "verdict for unknown job id %S"
                   v.Verdict.job_id)
        | Some i ->
            incr answered;
            let lat_ns = Int64.sub (Obs.Clock.now_ns ()) (sched i) in
            let us = max 0 (Int64.to_int (Int64.div lat_ns 1000L)) in
            Obs.Metrics.Histogram.observe hist us;
            (* Client-side job span: scheduled-send to verdict, the
               same interval the latency histogram samples. *)
            (if Obs.Trace.on () then
               let args =
                 [ ("id", Obs.Jsonl.Str v.Verdict.job_id) ]
                 @
                 match jobs.(i).Job.trace with
                 | Some t -> [ ("trace", Obs.Jsonl.Str t) ]
                 | None -> []
               in
               Obs.Trace.complete ~cat:"client" ~ts:(sched i) "load.job"
                 ~args);
            (match v.Verdict.status with
            | Verdict.Pass -> incr pass
            | Verdict.Violation -> incr violations
            | Verdict.Busy -> incr busy
            | Verdict.Bad_job _ | Verdict.Failed _ -> incr errors
            | Verdict.Budget_exhausted | Verdict.Timed_out
            | Verdict.Cancelled ->
                incr exhausted))
    | `Eof -> failure := Some "server closed the connection mid-run"
    | `Error e -> failure := Some ("protocol error: " ^ e)
  done;
  let wall_s = Int64.to_float (Int64.sub (Obs.Clock.now_ns ()) t0) /. 1e9 in
  (* On failure the sender may be wedged in a blocked send (that is
     what backpressure against a dead server looks like); half-close
     the socket so it wakes and the join cannot hang. *)
  if !failure <> None then Client.shutdown cl;
  Thread.join sender;
  (match !failure with Some m -> failwith m | None -> ());
  if Atomic.get sender_dead then failwith "load sender failed mid-run";
  let h = Obs.Metrics.Histogram.merged hist in
  let q p = float_of_int (Obs.Metrics.quantile h p) in
  {
    target_per_s = cfg.rate;
    jobs = n;
    answered = !answered;
    pass = !pass;
    violations = !violations;
    busy = !busy;
    errors = !errors;
    exhausted = !exhausted;
    wall_s;
    achieved_per_s = (if wall_s > 0. then float_of_int !answered /. wall_s else 0.);
    p50_us = q 0.5;
    p99_us = q 0.99;
    p999_us = q 0.999;
    max_us = float_of_int h.Obs.Metrics.max;
  }

let sweep addr cfg ~rates =
  List.map (fun rate -> run addr { cfg with rate }) rates

let outcome_to_json o =
  let open Obs.Jsonl in
  Obj
    [
      ("target_per_s", Float o.target_per_s);
      ("jobs", Int o.jobs);
      ("answered", Int o.answered);
      ("pass", Int o.pass);
      ("violations", Int o.violations);
      ("busy", Int o.busy);
      ("errors", Int o.errors);
      ("exhausted", Int o.exhausted);
      ("wall_s", Float o.wall_s);
      ("achieved_per_s", Float o.achieved_per_s);
      ("p50_us", Float o.p50_us);
      ("p99_us", Float o.p99_us);
      ("p999_us", Float o.p999_us);
      ("max_us", Float o.max_us);
    ]
