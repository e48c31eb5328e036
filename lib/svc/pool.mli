(** The batched checking service, in two shapes that run every job
    through one per-job path (execute, [svc.job] span, recorder notes,
    flight dumps on failure or timeout, {!record}).

    {2 Shape}

    A persistent service pool ({!create}; [elin serve]):

    {v
            submit (blocks when full: backpressure)
    caller ────────────► [Chan: jobs] ──► worker domains (N)
                                              │  per-job budget,
                                              │  deadline, cancel flag,
                                              │  crash containment
    caller ◄──────────── [Chan: verdicts] ◄───┘
            take_verdict
    v}

    A one-shot batch ({!run_batch}; [elin batch], the spool):

    {v
    jobs array ──► next index (Atomic.fetch_and_add)
                     ├─► calling domain ──┐
                     └─► N-1 helpers ─────┴─► verdict slots ──► seq order
    v}

    {2 Isolation and containment}

    Each job runs sequentially on one domain under its own
    [Budget.counter] (node budget) and a poll hook checking its
    wall-clock deadline and cancellation flag.  {e Any} exception a
    job raises — a poisoned spec, a malformed history, a checker bug —
    becomes that job's verdict ([bad_job] / [failed] / [timed_out] /
    [budget_exhausted] / [cancelled]); the worker and the pool
    survive.  Only harness-level failures (a domain dying outside job
    execution) propagate, and then via the join-all-then-reraise
    discipline of [Mc.Search.bfs]: {!shutdown} and {!run_batch} join
    every domain before re-raising, so no domain is ever leaked.

    {2 Determinism}

    Per-job results are deterministic (the checker is sequential per
    job); only completion {e order} depends on scheduling.  Verdicts
    carry the submission index, and {!run_batch} sorts by it, so batch
    output is independent of [domains] — the same bar as [lib/mc]. *)

open Elin_spec

(** Raised by the default resolver for a spec name outside
    [Zoo.all]. *)
exception Unknown_spec of string

val default_resolve : string -> Spec.t

type t

(** [create ~domains ()] — spawn the workers.

    - [queue_capacity] (default 64) bounds both channels; producers
      block when the service is saturated.
    - [default_budget] / [default_timeout_ms] apply to jobs that carry
      none of their own.
    - [resolve] maps job spec names to specs (default: the
      {!Elin_spec.Zoo} by name); exceptions it raises surface as
      [bad_job].

    Every job is prepared afresh ([Engine.prepare] is linear in the
    history, the check is not), so a long-lived pool holds nothing
    per finished job. *)
val create :
  ?queue_capacity:int ->
  ?default_budget:int ->
  ?default_timeout_ms:int ->
  ?resolve:(string -> Spec.t) ->
  domains:int ->
  unit ->
  t

(** [submit t job] — enqueue, blocking while the queue is full.
    Raises [Chan.Closed] after {!shutdown}. *)
val submit : t -> Job.t -> unit

(** [try_submit t job] — like {!submit} but never blocks: [false]
    when the queue is full (the socket server's [busy] admission
    path).  Raises [Chan.Closed] after {!shutdown}. *)
val try_submit : t -> Job.t -> bool

(** [take_verdict t] — next completed verdict (completion order);
    [None] once the pool is shut down and drained. *)
val take_verdict : t -> Verdict.t option

(** [cancel t id] — request cooperative cancellation of the most
    recently submitted job with this id; [false] if unknown.  A queued
    job is cancelled before it starts; a running one at its next poll.
    Already-completed jobs are unaffected. *)
val cancel : t -> string -> bool

(** Jobs currently queued (not yet picked up). *)
val queue_depth : t -> int

(** Verdicts emitted by workers and not yet taken. *)
val output_depth : t -> int

(** [shutdown t] — close the job channel, join every worker, then
    close the verdict channel (pending verdicts remain takeable).
    Idempotent.  Re-raises a harness-level worker failure only after
    all domains are joined. *)
val shutdown : t -> unit

(** [run_batch ~domains jobs] — check a whole batch on [domains]
    domains, the calling one included: it and [domains - 1] helper
    domains (fewer for a batch of fewer jobs; none when [domains = 1])
    take the jobs in list order from a shared counter.  Returns the
    verdicts sorted by [seq] (ties in list order), the same for any
    [domains].  Each job counts once in [svc.submitted]; batch jobs
    cannot be {!cancel}led.  Raises [Invalid_argument] when
    [domains < 1]. *)
val run_batch :
  ?default_budget:int ->
  ?default_timeout_ms:int ->
  ?resolve:(string -> Spec.t) ->
  domains:int ->
  Job.t list ->
  Verdict.t list

(** [parse_jobs lines] — classify numbered JSONL lines into jobs and
    immediate [bad_job] verdicts; blank and [#]-comment lines are
    skipped (their line numbers still count for [seq]). *)
val parse_jobs :
  string list -> [ `Job of Job.t | `Bad of Verdict.t ] list

(** [with_lines run lines] — {!parse_jobs}, {!record} the bad-line
    verdicts, check the jobs with [run] (which must return verdicts in
    [seq] order) and merge both back in submission order. *)
val with_lines :
  (Job.t list -> Verdict.t list) -> string list -> Verdict.t list

(** [run_lines ~domains lines] — {!with_lines} over {!run_batch}: the
    engine behind [elin batch] and the spool. *)
val run_lines :
  ?default_budget:int ->
  ?default_timeout_ms:int ->
  ?resolve:(string -> Spec.t) ->
  domains:int ->
  string list ->
  Verdict.t list

(** {2 Service metrics}

    The service counts into the process-wide {!Elin_obs.Metrics}
    registry, once per verdict: [svc.completed], one counter per
    status ([svc.pass], [svc.violations], [svc.budget_exhausted],
    [svc.timed_out], [svc.cancelled], [svc.busy], [svc.bad_jobs],
    [svc.failed]), [svc.nodes], and the [svc.latency_us] histogram of
    [wall_ms].  [svc.submitted] counts jobs a pool admitted.  These
    are per-job bumps, made whether or not the registry is on. *)

(** [record v] — count one answered verdict.  The workers record
    every verdict they produce; a front end records the verdicts it
    answers itself (bad lines, busy and bad-frame replies). *)
val record : Verdict.t -> unit

(** The [svc.*] totals as one JSON object, in a fixed key order:
    the counters, [queue_depth] (the [svc.queue] gauge), and
    [p50_ms]/[p99_ms]/[max_ms] from [svc.latency_us] (quantiles are
    bucket upper edges clamped to the exact max).  The line behind
    [elin batch --stats], the spool's [--stats] lines and the serve
    [{"final":true,...}] record. *)
val metrics_json : unit -> Elin_obs.Jsonl.t
