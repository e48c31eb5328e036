(** OpenMetrics text exposition for the {!Metrics} registry.

    Metric names are sanitized ([.] → [_]) and prefixed [elin_]:
    ["svc.latency_us"] exposes as [elin_svc_latency_us].  Counters get
    the [_total] suffix, histograms expose cumulative [_bucket{le=..}]
    lines at the log2 bucket upper edges plus [_count]/[_sum] and
    companion [_p50]/[_p99] gauges (nearest-rank, upper-edge bounds
    clamped to the exact max — same contract as {!Metrics.quantile}).  The body ends with
    the mandatory [# EOF] terminator. *)

(** Render a snapshot (pure — goldens feed a hand-built list). *)
val render_snapshot : (string * Metrics.value) list -> string

(** [render_snapshot (Metrics.snapshot ())]. *)
val render : unit -> string

(** Structural check of an exposition body: every line is a comment or
    [name[{labels}] value], terminated by [# EOF].  Used by
    [elin probe --openmetrics] and the telemetry smoke gate. *)
val validate : string -> (unit, string) result
