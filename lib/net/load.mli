(** Open-loop load driver for the socket service (YCSB-style).

    Jobs are generated deterministically from a seed, then injected at
    a fixed target arrival rate {e independent of completions} — the
    open-loop discipline: a slow server does not slow the arrival
    process, it grows the backlog, and latencies honestly include the
    queueing (latency is measured from each job's {e scheduled}
    arrival instant, so coordinated omission cannot hide a stall).

    {2 Job mix}

    Three classes, mixed by weight:
    - {b small} — 8-op linearizable fetch&increment histories: the
      common fast path (sub-millisecond checks);
    - {b large} — depth-[d] unsatisfiable register histories ([d]
      pending writes against a reader), whose refutation walks a
      factorial interleaving space: the tail-latency driver;
    - {b poison} — jobs whose spec raises, exercising the containment
      path ([failed] verdicts).

    Large and poison jobs name specs outside the standard zoo
    ({!test_resolve} provides them): serve with [elin serve
    --test-specs] (or [~resolve:test_resolve] in-process), else those
    classes degrade to [bad_job] verdicts and measure only the error
    path. *)

open Elin_spec

(** Resolver for the load mix: the default zoo plus ["elin.load.reg"]
    (a register wide enough for deep unsat histories) and
    ["elin.poison"] (raises on first transition). *)
val test_resolve : string -> Spec.t

type mix = { small : int; large : int; poison : int }  (** weights *)

type cfg = {
  rate : float;  (** target arrival rate, jobs/s *)
  jobs : int;  (** offered jobs per run *)
  seed : int;  (** generation seed (fully deterministic) *)
  mix : mix;
  large_depth : int;  (** pending writes in a large job (cost ~ d!) *)
  budget : int option;  (** per-job node budget sent on the wire *)
  timeout_ms : int option;
  idle_limit_s : float;
      (** receiver watchdog: fail (loudly, with progress counters) if
          the server sends nothing for this long — a load run must
          never hang silently on a lost verdict (default 60 s) *)
  trace_ids : bool;
      (** stamp every generated job with a trace-context id (its own
          job id) and record a client-side [load.job] span per verdict
          — off by default so the wire bytes match pre-tracing runs *)
}

val default_cfg : cfg

type outcome = {
  target_per_s : float;
  jobs : int;  (** offered *)
  answered : int;
  pass : int;
  violations : int;
  busy : int;
  errors : int;  (** bad_job + failed *)
  exhausted : int;  (** budget_exhausted + timed_out + cancelled *)
  wall_s : float;  (** first scheduled send → last verdict *)
  achieved_per_s : float;  (** answered / wall_s *)
  p50_us : float;  (** log2-bucket upper-edge quantiles (µs), clamped … *)
  p99_us : float;
  p999_us : float;
  max_us : float;  (** … to the exact maximum *)
}

(** [run addr cfg] — one run against a listening server.
    @raise Failure on protocol errors or early disconnect. *)
val run : Addr.t -> cfg -> outcome

(** [sweep addr cfg ~rates] — one {!run} per rate (fresh connection
    each), in order: the saturation-sweep series. *)
val sweep : Addr.t -> cfg -> rates:float list -> outcome list

(** Canonical JSONL row (latencies as JSON floats — they are measured,
    not deterministic). *)
val outcome_to_json : outcome -> Elin_obs.Jsonl.t
