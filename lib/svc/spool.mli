(** Directory spool: the file-system front door to the service.

    A spool directory holds job files named [*.jobs] (JSONL, one
    {!Job} per line).  Processing [NAME.jobs] produces [NAME.verdicts]
    next to it; a [.jobs] file is {e pending} iff its [.verdicts]
    sibling does not exist yet.  Verdict files are written to a
    temporary name and renamed into place, so a concurrent reader
    never observes a partial file and a crash never leaves a
    half-written [.verdicts] masking a pending job file.

    One metrics line (a JSON object, see {!Pool.metrics_json}) is
    logged per processed file on [stderr] when [stats] is set.  Its
    counts are the process's running totals, so across a {!watch}
    they accumulate file by file. *)

open Elin_spec

(** [pending ~dir] — basenames (without extension) of [.jobs] files in
    [dir] that have no [.verdicts] sibling, sorted. *)
val pending : dir:string -> string list

(** [process_file ~domains ~dir name] — run [dir/name.jobs] through
    the pool and atomically write [dir/name.verdicts].  Returns the
    verdicts (submission order). *)
val process_file :
  ?default_budget:int ->
  ?default_timeout_ms:int ->
  ?resolve:(string -> Spec.t) ->
  ?stats:bool ->
  domains:int ->
  dir:string ->
  string ->
  Verdict.t list

(** [scan_once ~domains ~dir ()] — process every pending job file
    once; returns how many files were processed. *)
val scan_once :
  ?default_budget:int ->
  ?default_timeout_ms:int ->
  ?resolve:(string -> Spec.t) ->
  ?stats:bool ->
  domains:int ->
  dir:string ->
  unit ->
  int

(** [watch ~domains ~dir ()] — poll the spool forever (or until
    [stop () = true], checked once per scan): {!scan_once}, sleep
    [poll_ms] (default 200) when idle, repeat. *)
val watch :
  ?default_budget:int ->
  ?default_timeout_ms:int ->
  ?resolve:(string -> Spec.t) ->
  ?stats:bool ->
  ?poll_ms:int ->
  ?stop:(unit -> bool) ->
  domains:int ->
  dir:string ->
  unit ->
  unit
