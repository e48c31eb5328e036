(** Lock-striped set of 64-bit fingerprints.

    The model checker's visited set is the one data structure every
    domain hammers concurrently, so it is sharded: a fingerprint's
    {e mixed} low bits select one of [stripes] independent flat
    {!Fp_set}s (unboxed keys the GC never scans), each behind its own
    [Mutex].  Two domains contend only when their fingerprints land on
    the same stripe, so with the default 64 stripes and a handful of
    domains the lock is effectively uncontended.  Only stdlib primitives are used ([Mutex] is
    domain-safe in OCaml 5; no [threads.posix] dependency).

    Stripe choice goes through {!Fingerprint.mix} rather than raw low
    bits: {!Shard_set} partitions the same fingerprints by owner
    domain, and if both structures keyed on raw bit ranges, a
    fingerprint family confined to one owner shard could also be
    confined to one stripe — the legacy striped path would degenerate
    to a single mutex.  The mixed word disperses uniformly even when
    raw low bits are fixed (unit-tested), and the stripe index (low
    bits of the mix) is disjoint from the owner index (high bits of
    the same mix). *)

type stripe = {
  lock : Mutex.t;
  table : Fp_set.t;
}

type t = {
  stripes : stripe array;
  mask : int;
  (* Approximate member count, maintained only while observability is
     on (metrics counters and the power-of-two growth instants below);
     never consulted by [add]/[mem] themselves.  [clear] resets it:
     the growth-event heuristic must not inherit a recycled set's old
     count (it previously leaked, so a cleared set skipped its early
     growth instants and fired spurious high-water ones). *)
  occupancy : int Atomic.t;
}

(* Merged across every live set: the visited-set occupancy is the mc
   memory story, so it is worth a registry entry. *)
let m_queries = Elin_obs.Metrics.counter "kernel.striped_set.queries"
let m_inserts = Elin_obs.Metrics.counter "kernel.striped_set.inserts"

let rec next_pow2 n k = if k >= n then k else next_pow2 n (k * 2)

let create ?(stripes = 64) () =
  let n = next_pow2 (max 1 stripes) 1 in
  {
    stripes =
      Array.init n (fun _ ->
          { lock = Mutex.create (); table = Fp_set.create () });
    mask = n - 1;
    occupancy = Atomic.make 0;
  }

(* A set that doubled in size is a growth event worth one trace
   instant (not one per insert): emit when occupancy crosses a power
   of two at >= 1024 entries. *)
let observe_insert t =
  let n = Atomic.fetch_and_add t.occupancy 1 + 1 in
  if n >= 1024 && n land (n - 1) = 0 && Elin_obs.Trace.on () then
    Elin_obs.Trace.instant ~cat:"kernel" "striped_set.grow"
      ~args:[ ("entries", Elin_obs.Jsonl.Int n) ]

let stripe_of t (fp : int64) =
  t.stripes.(Int64.to_int (Fingerprint.mix fp) land t.mask)

(** [add t fp] — [true] iff [fp] was not yet a member (it is now). *)
let add t fp =
  let s = stripe_of t fp in
  Mutex.lock s.lock;
  let fresh = Fp_set.add s.table fp in
  Mutex.unlock s.lock;
  if Elin_obs.Metrics.on () then begin
    Elin_obs.Metrics.Counter.incr m_queries;
    if fresh then begin
      Elin_obs.Metrics.Counter.incr m_inserts;
      observe_insert t
    end
  end;
  fresh

let mem t fp =
  let s = stripe_of t fp in
  Mutex.lock s.lock;
  let r = Fp_set.mem s.table fp in
  Mutex.unlock s.lock;
  if Elin_obs.Metrics.on () then Elin_obs.Metrics.Counter.incr m_queries;
  r

(* [cardinal]/[clear] lock stripe by stripe, not the whole set: under
   concurrent [add]s the result is a per-stripe-consistent snapshot
   (every fingerprint added-and-returned before the call is counted;
   racing adds may or may not be), never a torn per-table read. *)
let cardinal t =
  Array.fold_left (fun n s ->
      Mutex.lock s.lock;
      let l = Fp_set.length s.table in
      Mutex.unlock s.lock;
      n + l)
    0 t.stripes

let n_stripes t = Array.length t.stripes

let occupancy t = Atomic.get t.occupancy

let clear t =
  Array.iter (fun s ->
      Mutex.lock s.lock;
      Fp_set.reset s.table;
      Mutex.unlock s.lock)
    t.stripes;
  Atomic.set t.occupancy 0
