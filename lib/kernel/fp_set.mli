(** Flat open-addressing set of 64-bit fingerprints.

    Keys live unboxed in one [Bytes] buffer (8 bytes a slot), which the
    GC treats as opaque: however many fingerprints the set holds, the
    major collector never scans them, and a member costs 16–32 bytes
    instead of the ~60 of a boxed [(int64, unit) Hashtbl.t] entry.
    Collisions resolve by linear probing from a Fibonacci hash of the
    raw fingerprint; the table doubles once it is half full.  [0L]
    marks an empty slot and is tracked by a separate flag, so it is
    still an ordinary member.

    Not synchronised: callers provide exclusion ({!Striped_set}'s
    stripe mutex, {!Shard_set}'s single owner, the store's shard
    lock). *)

type t

(** An empty set with a small initial table. *)
val create : unit -> t

(** [add t fp] — [true] iff [fp] was not yet a member (it is now). *)
val add : t -> int64 -> bool

val mem : t -> int64 -> bool

(** Number of members. *)
val length : t -> int

(** Empty the set and shrink it back to its initial table. *)
val reset : t -> unit

(** Every member once, in table order (unspecified but deterministic
    for a given sequence of [add]s). *)
val to_array : t -> int64 array
