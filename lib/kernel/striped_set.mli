(** Lock-striped set of 64-bit fingerprints: the model checker's
    visited set (legacy/sequential path; the sharded engine uses
    {!Shard_set}).  The {e mixed} low bits of a fingerprint
    ({!Fingerprint.mix}) select one of [stripes] independent flat
    {!Fp_set}s, each behind its own stdlib [Mutex] (domain-safe in OCaml 5;
    no [threads.posix]), so concurrent domains contend only on stripe
    collisions — and stripe dispersion stays uniform even for
    fingerprint families with fixed raw low bits (e.g. everything
    routed to one {!Shard_set} owner). *)

type t

(** [create ?stripes ()] — [stripes] (rounded up to a power of two,
    default 64) empty shards. *)
val create : ?stripes:int -> unit -> t

(** [add t fp] — [true] iff [fp] was not yet a member; it is a member
    afterwards either way.  The membership test and insertion are one
    atomic action, so exactly one of several racing [add]s of the same
    fingerprint returns [true]. *)
val add : t -> int64 -> bool

val mem : t -> int64 -> bool

(** Total members across stripes.  Locks stripe by stripe, {e not}
    globally: under concurrent [add]s the result is a snapshot, not a
    linearizable count — every add that returned before [cardinal]
    started is counted, adds racing with the traversal may or may not
    be, and the result never exceeds the final quiescent count. *)
val cardinal : t -> int

val n_stripes : t -> int

(** Approximate member count as maintained by the observability path
    (bumped only while [Elin_obs.Metrics.on ()]; [0] otherwise).
    Reset by {!clear}. *)
val occupancy : t -> int

(** Empty the set.  Locks stripe by stripe like {!cardinal} — a
    concurrent [add] that hits an already-cleared stripe survives, one
    that hits a not-yet-cleared stripe is dropped; quiesce first if an
    empty result must be observed.  Also resets {!occupancy}, so a
    reused set's growth-event heuristic starts from zero instead of
    inheriting the previous population's count. *)
val clear : t -> unit
