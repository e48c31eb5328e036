(** Owner-partitioned set of 64-bit fingerprints: the sharded search's
    visited set.

    Where {!Striped_set} lets every domain touch every stripe behind a
    mutex, this structure gives each domain {e outright ownership} of
    one shard: a fingerprint's owner is a pure function of its value
    ({!owner}), all [add]/[mem] traffic for it happens on the owning
    domain, and the shard is a flat {!Fp_set} with no lock on the hot
    path.  Cross-domain synchronization is the {e caller's} routing
    discipline (the search hands fingerprints to their owner over
    {!Spsc} queues and separates phases with {!Barrier}); this module
    itself is just the partition function plus per-shard tables.

    {2 Bit discipline}

    [owner] keys on the {e high} bits of {!Fingerprint.mix} while
    {!Striped_set} stripes on the {e low} bits of the same mixed word.
    Disjoint ranges of one avalanche: a fingerprint family confined to
    one owner shard still disperses uniformly across stripes (and vice
    versa), so mixing engines — e.g. a sharded search next to a legacy
    striped set over the same fingerprints — never degenerates either
    structure.  (Keying both on raw bits was the aliasing bug this
    replaces: all of one shard's fingerprints shared their residue,
    collapsing the striped path to a single mutex.) *)

type t = {
  tables : Fp_set.t array;
  shards : int;
}

let create ?(shards = 1) () =
  if shards < 1 then invalid_arg "Shard_set.create: shards must be >= 1";
  { tables = Array.init shards (fun _ -> Fp_set.create ()); shards }

let shards t = t.shards

(* High 31 bits of the mixed word (shifting by 33 also clears the sign
   bit of the boxed-int64-to-int conversion), disjoint from the <= 16
   low bits any realistic stripe count reads. *)
let owner t (fp : int64) =
  if t.shards = 1 then 0
  else
    Int64.to_int (Int64.shift_right_logical (Fingerprint.mix fp) 33)
    mod t.shards

(** [add t ~shard fp] — [true] iff [fp] was not yet a member of
    [shard] (it is now).  The caller must be [shard]'s owning domain;
    [shard] must be [owner t fp] for membership to mean anything
    set-wide. *)
let add t ~shard fp = Fp_set.add t.tables.(shard) fp

let mem t ~shard fp = Fp_set.mem t.tables.(shard) fp

let shard_cardinal t shard = Fp_set.length t.tables.(shard)

(* Quiescent callers only (stats at end of search). *)
let cardinal t =
  Array.fold_left (fun n tbl -> n + Fp_set.length tbl) 0 t.tables
