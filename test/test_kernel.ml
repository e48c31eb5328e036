(** Unit and property tests for the kernel substrate: PRNG, bitsets,
    greedy interval matching. *)

open Elin_kernel
open Elin_test_support

let prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let xs = List.init 20 (fun _ -> Prng.int a 1_000_000) in
  let ys = List.init 20 (fun _ -> Prng.int b 1_000_000) in
  Alcotest.(check bool) "different seeds differ" true (xs <> ys)

let prng_bounds =
  Support.qtest "int stays in bounds" QCheck2.Gen.(pair int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Prng.create seed in
      let v = Prng.int rng bound in
      0 <= v && v < bound)

let prng_split () =
  let a = Prng.create 7 in
  let b = Prng.split a in
  let xs = List.init 10 (fun _ -> Prng.int a 1000) in
  let ys = List.init 10 (fun _ -> Prng.int b 1000) in
  Alcotest.(check bool) "split streams independent-ish" true (xs <> ys)

let prng_shuffle_permutes =
  Support.seeded_prop "shuffle permutes" (fun rng ->
      let xs = List.init 30 (fun i -> i) in
      let ys = Prng.shuffle rng xs in
      List.sort compare ys = xs)

let prng_choose_member =
  Support.seeded_prop "choose returns member" (fun rng ->
      let xs = [ 3; 1; 4; 1; 5; 9 ] in
      List.mem (Prng.choose rng xs) xs)

let prng_float_unit =
  Support.seeded_prop "float in [0,1)" (fun rng ->
      let f = Prng.float rng in
      0.0 <= f && f < 1.0)

(* --- Bitset --- *)

let bitset_empty () =
  let b = Bitset.empty 100 in
  Alcotest.(check int) "cardinal" 0 (Bitset.cardinal b);
  Alcotest.(check bool) "is_empty" true (Bitset.is_empty b);
  for i = 0 to 99 do
    Alcotest.(check bool) "not mem" false (Bitset.mem b i)
  done

let bitset_add_mem () =
  let b = Bitset.empty 130 in
  let b = Bitset.add b 0 in
  let b = Bitset.add b 61 in
  let b = Bitset.add b 62 in
  let b = Bitset.add b 129 in
  List.iter
    (fun i -> Alcotest.(check bool) (Printf.sprintf "mem %d" i) true (Bitset.mem b i))
    [ 0; 61; 62; 129 ];
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal b);
  Alcotest.(check bool) "not mem 63" false (Bitset.mem b 63)

let bitset_add_idempotent () =
  let b = Bitset.add (Bitset.empty 10) 3 in
  let b' = Bitset.add b 3 in
  Alcotest.(check bool) "physical equal on re-add" true (b == b')

let bitset_remove () =
  let b = Bitset.of_list 70 [ 1; 65; 3 ] in
  let b = Bitset.remove b 65 in
  Alcotest.(check bool) "removed" false (Bitset.mem b 65);
  Alcotest.(check (list int)) "rest" [ 1; 3 ] (Bitset.to_list b)

let bitset_immutable () =
  let b = Bitset.empty 10 in
  let b' = Bitset.add b 5 in
  Alcotest.(check bool) "original untouched" false (Bitset.mem b 5);
  Alcotest.(check bool) "copy has it" true (Bitset.mem b' 5)

let bitset_equal_hash =
  Support.seeded_prop "equal sets hash equal" (fun rng ->
      let xs = List.init 20 (fun _ -> Prng.int rng 90) in
      let a = Bitset.of_list 90 xs in
      let b = Bitset.of_list 90 (List.rev xs) in
      Bitset.equal a b && Bitset.hash a = Bitset.hash b)

let bitset_roundtrip =
  Support.seeded_prop "of_list/to_list roundtrip" (fun rng ->
      let xs = List.sort_uniq compare (List.init 15 (fun _ -> Prng.int rng 200)) in
      Bitset.to_list (Bitset.of_list 200 xs) = xs)

let bitset_full () =
  let b = Bitset.of_list 5 [ 0; 1; 2; 3; 4 ] in
  Alcotest.(check bool) "is_full" true (Bitset.is_full b);
  Alcotest.(check bool) "not full" false (Bitset.is_full (Bitset.remove b 2))

let bitset_out_of_range () =
  Alcotest.check_raises "mem out of width"
    (Invalid_argument "Bitset: index 10 out of width 10") (fun () ->
      ignore (Bitset.mem (Bitset.empty 10) 10))

(* --- Fingerprint --- *)

(* Zero/empty inputs must digest deterministically and stay told
   apart: absorbing nothing, a zero of each width, and an empty
   string/sequence are all distinct encodings. *)
let fingerprint_zero_empty () =
  let fp f = Fingerprint.finish (f (Fingerprint.start ())) in
  let nothing = fp Fun.id in
  Alcotest.(check bool) "empty digest deterministic" true
    (Fingerprint.equal nothing (fp Fun.id));
  let distinct =
    [
      ("nothing", nothing);
      ("byte 0", fp (fun a -> Fingerprint.byte a 0));
      ("int 0", fp (fun a -> Fingerprint.int a 0));
      ("string \"\\000\"", fp (fun a -> Fingerprint.string a "\000"));
      ("string \"\\000...\"", fp (fun a -> Fingerprint.string a "\000\000"));
    ]
  in
  List.iteri
    (fun i (ni, di) ->
      List.iteri
        (fun j (nj, dj) ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s <> %s" ni nj)
              false (Fingerprint.equal di dj))
        distinct)
    distinct;
  (* The absorbers are an untyped byte stream (callers tag their
     encodings): [bool b] is literally [byte (if b then 1 else 0)],
     [int n] is [int64 (of_int n)], and an empty sequence — string,
     list, flat array — is exactly its absorbed 0-length prefix. *)
  let equal_classes =
    [
      ( "bool false = byte 0",
        fp (fun a -> Fingerprint.bool a false),
        fp (fun a -> Fingerprint.byte a 0) );
      ( "int 0 = int64 0",
        fp (fun a -> Fingerprint.int a 0),
        fp (fun a -> Fingerprint.int64 a 0L) );
      ( "empty string = int 0",
        fp (fun a -> Fingerprint.string a ""),
        fp (fun a -> Fingerprint.int a 0) );
      ( "empty list = int 0",
        fp (fun a -> Fingerprint.list Fingerprint.int a []),
        fp (fun a -> Fingerprint.int a 0) );
      ( "empty int_array = empty list",
        fp (fun a -> Fingerprint.int_array a [||]),
        fp (fun a -> Fingerprint.list Fingerprint.int a []) );
      ( "empty int64_array = empty list",
        fp (fun a -> Fingerprint.int64_array a [||]),
        fp (fun a -> Fingerprint.list Fingerprint.int a []) );
    ]
  in
  List.iter
    (fun (name, a, b) ->
      Alcotest.(check bool) name true (Fingerprint.equal a b))
    equal_classes;
  Alcotest.(check bool) "bool true <> bool false" false
    (Fingerprint.equal
       (fp (fun a -> Fingerprint.bool a true))
       (fp (fun a -> Fingerprint.bool a false)))

(* The flat-array absorbers are drop-in replacements for the closure
   folds they optimize. *)
let fingerprint_flat_absorbers =
  Support.seeded_prop "flat absorbers match folds" (fun rng ->
      let n = Prng.int rng 30 in
      let xs = Array.init n (fun _ -> Prng.int rng 1_000_000) in
      let ys = Array.map Int64.of_int xs in
      let fp f = Fingerprint.finish (f (Fingerprint.start ())) in
      Fingerprint.equal
        (fp (fun a -> Fingerprint.int_array a xs))
        (fp (fun a -> Fingerprint.array Fingerprint.int a xs))
      && Fingerprint.equal
           (fp (fun a -> Fingerprint.int64_array a ys))
           (fp (fun a -> Fingerprint.array Fingerprint.int64 a ys)))

(* Distinct seeds give distinct digest families; the same seed
   reproduces bit-identical digests. *)
let fingerprint_seeding () =
  let fp seed i =
    Fingerprint.finish (Fingerprint.int (Fingerprint.start ~seed ()) i)
  in
  for i = 0 to 99 do
    Alcotest.(check bool) "same seed reproduces" true
      (Fingerprint.equal (fp 0xabcdL i) (fp 0xabcdL i));
    Alcotest.(check bool) "distinct seeds differ" false
      (Fingerprint.equal (fp 0xabcdL i) (fp 0x1234L i))
  done

(* Seeded-collision smoke: 10^5 distinct short encodings, digested
   under two independent seeds — any same-family collision at this
   scale (expected ~ 3x10^-10) is a bug, and no pair may collide
   under both families at once. *)
let fingerprint_collision_smoke () =
  let n = 100_000 in
  let family seed =
    let tbl = Hashtbl.create (2 * n) in
    for i = 0 to n - 1 do
      let acc = Fingerprint.start ~seed () in
      let acc = Fingerprint.int (Fingerprint.byte acc (i land 0xff)) i in
      let d = Fingerprint.finish (Fingerprint.string acc (string_of_int i)) in
      (match Hashtbl.find_opt tbl d with
      | Some j ->
        Alcotest.failf "seed %Lx: encodings %d and %d collide on %s" seed j i
          (Fingerprint.to_hex d)
      | None -> ());
      Hashtbl.add tbl d i
    done;
    tbl
  in
  let a = family 0x6b65726eL in
  let b = family 0x736d6f6bL in
  Alcotest.(check int) "family sizes" (Hashtbl.length a) (Hashtbl.length b)

(* --- Striped_set --- *)

let striped_add_mem () =
  let s = Striped_set.create () in
  Alcotest.(check bool) "fresh add" true (Striped_set.add s 42L);
  Alcotest.(check bool) "re-add" false (Striped_set.add s 42L);
  Alcotest.(check bool) "mem" true (Striped_set.mem s 42L);
  Alcotest.(check bool) "not mem" false (Striped_set.mem s 43L);
  Alcotest.(check int) "cardinal" 1 (Striped_set.cardinal s);
  Striped_set.clear s;
  Alcotest.(check int) "cleared" 0 (Striped_set.cardinal s);
  Alcotest.(check bool) "add after clear" true (Striped_set.add s 42L)

let striped_stripes_pow2 () =
  List.iter
    (fun (req, got) ->
      Alcotest.(check int)
        (Printf.sprintf "stripes %d -> %d" req got)
        got
        (Striped_set.n_stripes (Striped_set.create ~stripes:req ())))
    [ (1, 1); (3, 4); (64, 64); (65, 128) ]

(* Growth past the per-stripe initial Hashtbl capacity (1024): a
   1-stripe set forced through many resizes must stay exact. *)
let striped_growth () =
  let s = Striped_set.create ~stripes:1 () in
  let n = 50_000 in
  for i = 0 to n - 1 do
    Alcotest.(check bool) "fresh" true (Striped_set.add s (Int64.of_int i))
  done;
  Alcotest.(check int) "cardinal after growth" n (Striped_set.cardinal s);
  for i = 0 to n - 1 do
    if not (Striped_set.mem s (Int64.of_int i)) then
      Alcotest.failf "lost %d after growth" i
  done;
  Alcotest.(check bool) "absent stays absent" false
    (Striped_set.mem s (Int64.of_int n))

(* The membership test and insert are one atomic action: when D
   domains race to add the same fingerprints, each fingerprint is won
   exactly once, whatever the interleaving.  Exercises both the
   same-stripe contention path (stripes:2) and concurrent resize
   (50k keys through 2 stripes). *)
let striped_concurrent_race () =
  let n_domains = 4 and n = 50_000 in
  let s = Striped_set.create ~stripes:2 () in
  let go = Atomic.make false in
  let worker () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    let wins = ref 0 in
    for i = 0 to n - 1 do
      if Striped_set.add s (Int64.of_int i) then incr wins
    done;
    !wins
  in
  let domains = Array.init n_domains (fun _ -> Domain.spawn worker) in
  Atomic.set go true;
  let wins = Array.fold_left (fun t d -> t + Domain.join d) 0 domains in
  Alcotest.(check int) "every fingerprint won exactly once" n wins;
  Alcotest.(check int) "cardinal" n (Striped_set.cardinal s);
  for i = 0 to n - 1 do
    if not (Striped_set.mem s (Int64.of_int i)) then
      Alcotest.failf "fingerprint %d lost in the race" i
  done

(* The stripe index reads the {e mixed} low bits ({!Fingerprint.mix}),
   so fingerprint families with fixed raw low bits — e.g. everything a
   single {!Shard_set} owner receives — still disperse uniformly.
   Keying on raw bits (the aliasing bug this guards against) would put
   every multiple of 64 on stripe 0 of any <= 64-stripe set. *)
let striped_dispersion_fixed_low_bits () =
  let stripes = 16 in
  let n = 4096 in
  let counts = Array.make stripes 0 in
  for i = 0 to n - 1 do
    let fp = Int64.of_int (i * 64) (* raw low 6 bits all zero *) in
    let s = Int64.to_int (Fingerprint.mix fp) land (stripes - 1) in
    counts.(s) <- counts.(s) + 1
  done;
  let expect = n / stripes in
  Array.iteri
    (fun s c ->
      if c < expect / 2 || c > expect * 2 then
        Alcotest.failf "stripe %d holds %d of %d (uniform would be ~%d)" s c n
          expect)
    counts

(* cardinal/clear lock stripe by stripe, not globally: under a racing
   adder the observed counts are per-stripe snapshots — monotone
   between calls, bounded by the final population, exact once
   quiescent. *)
let striped_snapshot_under_adds () =
  let s = Striped_set.create ~stripes:4 () in
  let n = 20_000 in
  let go = Atomic.make false in
  let adder =
    Domain.spawn (fun () ->
        while not (Atomic.get go) do
          Domain.cpu_relax ()
        done;
        for i = 0 to n - 1 do
          ignore (Striped_set.add s (Int64.of_int i))
        done)
  in
  Atomic.set go true;
  let c1 = Striped_set.cardinal s in
  let c2 = Striped_set.cardinal s in
  if not (0 <= c1 && c1 <= c2 && c2 <= n) then
    Alcotest.failf "snapshots not monotone in-bounds: %d then %d" c1 c2;
  Domain.join adder;
  Alcotest.(check int) "quiescent cardinal" n (Striped_set.cardinal s)

(* clear racing adds: survivors are a subset of the added keys (adds
   that hit an already-cleared stripe stick, the rest are dropped);
   a second, quiescent clear observes empty and resets occupancy. *)
let striped_clear_under_adds () =
  let s = Striped_set.create ~stripes:4 () in
  let n = 20_000 in
  let adder =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          ignore (Striped_set.add s (Int64.of_int i))
        done)
  in
  Striped_set.clear s;
  Domain.join adder;
  let c = Striped_set.cardinal s in
  if c > n then Alcotest.failf "cardinal %d exceeds the %d adds" c n;
  Striped_set.clear s;
  Alcotest.(check int) "quiescent clear" 0 (Striped_set.cardinal s);
  Alcotest.(check int) "occupancy reset" 0 (Striped_set.occupancy s)

let striped_occupancy_reset () =
  Elin_obs.Metrics.enable ();
  Fun.protect ~finally:Elin_obs.Metrics.disable @@ fun () ->
  let s = Striped_set.create ~stripes:2 () in
  for i = 0 to 99 do
    ignore (Striped_set.add s (Int64.of_int i))
  done;
  ignore (Striped_set.add s 7L) (* duplicate: no occupancy bump *);
  Alcotest.(check int) "occupancy tracks inserts" 100 (Striped_set.occupancy s);
  Striped_set.clear s;
  Alcotest.(check int) "clear resets occupancy" 0 (Striped_set.occupancy s);
  ignore (Striped_set.add s 7L);
  Alcotest.(check int) "fresh count after clear" 1 (Striped_set.occupancy s)

(* --- Shard_set --- *)

let shard_add_mem () =
  let s = Shard_set.create ~shards:4 () in
  Alcotest.(check int) "shards" 4 (Shard_set.shards s);
  let fp = 0x123456789abcdefL in
  let sh = Shard_set.owner s fp in
  Alcotest.(check bool) "owner in range" true (sh >= 0 && sh < 4);
  Alcotest.(check int) "owner deterministic" sh (Shard_set.owner s fp);
  Alcotest.(check bool) "fresh add" true (Shard_set.add s ~shard:sh fp);
  Alcotest.(check bool) "re-add" false (Shard_set.add s ~shard:sh fp);
  Alcotest.(check bool) "mem" true (Shard_set.mem s ~shard:sh fp);
  Alcotest.(check int) "shard cardinal" 1 (Shard_set.shard_cardinal s sh);
  Alcotest.(check int) "cardinal" 1 (Shard_set.cardinal s)

let shard_owner_uniform () =
  let shards = 4 in
  let s = Shard_set.create ~shards () in
  let n = 4096 in
  let counts = Array.make shards 0 in
  for i = 0 to n - 1 do
    let o = Shard_set.owner s (Int64.of_int i) in
    counts.(o) <- counts.(o) + 1
  done;
  let expect = n / shards in
  Array.iteri
    (fun o c ->
      if c < expect / 2 || c > expect * 2 then
        Alcotest.failf "shard %d owns %d of %d (uniform would be ~%d)" o c n
          expect)
    counts

(* The two partitions read disjoint bit ranges of one mixed word: the
   fingerprints confined to a single owner shard still disperse
   uniformly across stripes.  This is the cross-structure half of the
   aliasing regression. *)
let shard_owner_keeps_stripes_uniform () =
  let ss = Shard_set.create ~shards:4 () in
  let stripes = 64 in
  let counts = Array.make stripes 0 in
  let owned = ref 0 and i = ref 0 in
  while !owned < 2048 do
    let fp = Int64.of_int !i in
    if Shard_set.owner ss fp = 0 then begin
      incr owned;
      let s = Int64.to_int (Fingerprint.mix fp) land (stripes - 1) in
      counts.(s) <- counts.(s) + 1
    end;
    incr i
  done;
  let expect = 2048 / stripes in
  Array.iteri
    (fun s c ->
      if c = 0 || c > 3 * expect then
        Alcotest.failf
          "stripe %d holds %d of one owner's 2048 fps (uniform would be ~%d)" s
          c expect)
    counts

(* The single-owner discipline across real domains: each domain adds
   only the fingerprints it owns, so the partition is exact and
   disjoint with no synchronization at all. *)
let shard_parallel_ownership () =
  let shards = 4 in
  let s = Shard_set.create ~shards () in
  let n = 20_000 in
  let worker d () =
    let mine = ref 0 in
    for i = 0 to n - 1 do
      let fp = Int64.of_int i in
      if Shard_set.owner s fp = d && Shard_set.add s ~shard:d fp then incr mine
    done;
    !mine
  in
  let ds = Array.init shards (fun d -> Domain.spawn (worker d)) in
  let total = Array.fold_left (fun t d -> t + Domain.join d) 0 ds in
  Alcotest.(check int) "disjoint exact partition" n total;
  Alcotest.(check int) "cardinal" n (Shard_set.cardinal s)

(* --- Spsc --- *)

(* Fp_set against a reference [Hashtbl], seeded.  Keys mix a reused
   pool (duplicates), 0L (the empty-slot sentinel) and the int64
   extremes, fresh random words, and a family whose low 40 bits are
   fixed; each round grows the table through several doublings, then
   [reset] empties it. *)
let fp_set_model () =
  let specials = [| 0L; Int64.min_int; Int64.max_int; -1L; 1L |] in
  List.iter
    (fun seed ->
      let rng = Prng.create seed in
      let random64 () =
        let b () = Int64.of_int (Prng.bits rng) in
        Int64.(logxor (shift_left (b ()) 34) (logxor (shift_left (b ()) 12) (b ())))
      in
      let pool =
        Array.init 3000 (fun i ->
            if i < Array.length specials then specials.(i)
            else if i mod 3 = 0 then Int64.shift_left (Int64.of_int i) 40
            else random64 ())
      in
      let s = Fp_set.create () and model = Hashtbl.create 16 in
      let agree what fp =
        if Fp_set.mem s fp <> Hashtbl.mem model fp then
          Alcotest.failf "seed %d: %s: mem %Ld disagrees" seed what fp
      in
      let same_members what =
        Alcotest.(check int) (what ^ ": length") (Hashtbl.length model)
          (Fp_set.length s);
        let got = List.sort compare (Array.to_list (Fp_set.to_array s)) in
        let want =
          List.sort compare (Hashtbl.fold (fun fp () acc -> fp :: acc) model [])
        in
        if got <> want then
          Alcotest.failf "seed %d: %s: to_array is not the member set" seed what
      in
      for round = 1 to 3 do
        for _ = 1 to 20_000 do
          let fp =
            if Prng.int rng 4 = 0 then random64 ()
            else pool.(Prng.int rng (Array.length pool))
          in
          if Prng.bool rng then begin
            let fresh = not (Hashtbl.mem model fp) in
            Hashtbl.replace model fp ();
            if Fp_set.add s fp <> fresh then
              Alcotest.failf "seed %d: add %Ld disagrees" seed fp
          end
          else agree "probe" fp
        done;
        let what = Printf.sprintf "round %d" round in
        Array.iter (agree what) pool;
        same_members what;
        Alcotest.(check bool) "grew through several doublings" true
          (Fp_set.length s > 2048);
        Fp_set.reset s;
        Hashtbl.reset model;
        same_members (what ^ " after reset");
        Array.iter (agree (what ^ " after reset")) specials
      done)
    [ 1; 2; 3 ]

let spsc_fifo () =
  let q = Spsc.create () in
  Alcotest.(check bool) "fresh empty" true (Spsc.is_empty q);
  Alcotest.(check (option int)) "pop empty" None (Spsc.pop q);
  for i = 0 to 99 do
    Spsc.push q i
  done;
  Alcotest.(check bool) "non-empty" false (Spsc.is_empty q);
  for i = 0 to 99 do
    Alcotest.(check (option int)) "fifo order" (Some i) (Spsc.pop q)
  done;
  Alcotest.(check (option int)) "drained" None (Spsc.pop q)

let spsc_cross_domain () =
  let q = Spsc.create () in
  let n = 100_000 in
  let producer =
    Domain.spawn (fun () ->
        for i = 0 to n - 1 do
          Spsc.push q i
        done)
  in
  let expect = ref 0 in
  while !expect < n do
    match Spsc.pop q with
    | None -> Domain.cpu_relax ()
    | Some v ->
      if v <> !expect then
        Alcotest.failf "reordered: got %d, wanted %d" v !expect;
      incr expect
  done;
  Domain.join producer;
  Alcotest.(check (option int)) "drained" None (Spsc.pop q)

(* --- Barrier --- *)

let barrier_rounds () =
  let n = 4 and rounds = 50 in
  let b = Barrier.create n in
  Alcotest.(check int) "parties" n (Barrier.parties b);
  let counter = Atomic.make 0 in
  let worker () =
    for r = 1 to rounds do
      Atomic.incr counter;
      Barrier.await b;
      (* Between the two awaits of round [r] every party has bumped
         exactly [r] times and none has started round [r+1]. *)
      let c = Atomic.get counter in
      if c <> r * n then Alcotest.failf "round %d saw count %d" r c;
      Barrier.await b
    done
  in
  let ds = Array.init (n - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join ds;
  Alcotest.(check int) "all increments" (rounds * n) (Atomic.get counter)

let barrier_poison () =
  let b = Barrier.create 3 in
  Alcotest.(check bool) "fresh" false (Barrier.poisoned b);
  Barrier.poison b;
  Alcotest.(check bool) "flagged" true (Barrier.poisoned b);
  let raised () =
    match Barrier.await b with
    | () -> false
    | exception Barrier.Poisoned -> true
  in
  let ds = Array.init 2 (fun _ -> Domain.spawn raised) in
  let mine = raised () in
  Alcotest.(check bool) "await raises Poisoned everywhere" true
    (mine && Array.for_all Domain.join ds)

(* Poisoning while parties are blocked in [await] wakes them with
   [Poisoned] instead of deadlocking the incomplete round. *)
let barrier_poison_wakes_waiters () =
  let b = Barrier.create 3 in
  let waiter () =
    match Barrier.await b with
    | () -> false
    | exception Barrier.Poisoned -> true
  in
  let ds = Array.init 2 (fun _ -> Domain.spawn waiter) in
  (* Third party never arrives: poison instead. *)
  Barrier.poison b;
  Alcotest.(check bool) "blocked waiters raise Poisoned" true
    (Array.for_all Domain.join ds)

(* --- Matching --- *)

let matching_simple () =
  (* slots 0,2; fillers lb [0;0] -> feasible *)
  Alcotest.(check bool) "feasible" true
    (Matching.feasible ~slots:[ 0; 2 ] ~lower_bounds:[| 0; 0 |]);
  (* slot 0 but both fillers need >= 1 -> infeasible *)
  Alcotest.(check bool) "infeasible" false
    (Matching.feasible ~slots:[ 0 ] ~lower_bounds:[| 1; 1 |])

let matching_exact_assignment () =
  match Matching.assign ~slots:[ 1; 3; 5 ] ~lower_bounds:[| 4; 0; 2 |] with
  | None -> Alcotest.fail "expected assignment"
  | Some pairs ->
    (* Greedy: slot 1 <- filler lb 0 (idx 1); slot 3 <- lb 2 (idx 2);
       slot 5 <- lb 4 (idx 0). *)
    Alcotest.(check (list (pair int int))) "assignment"
      [ (1, 1); (3, 2); (5, 0) ]
      pairs

let matching_insufficient_fillers () =
  Alcotest.(check bool) "too few fillers" false
    (Matching.feasible ~slots:[ 0; 1; 2 ] ~lower_bounds:[| 0; 0 |])

let matching_hall_violation () =
  (* Two fillers both need slot >= 5 but slots are 1 and 6: slot 1
     unfillable. *)
  Alcotest.(check bool) "hall violation" false
    (Matching.feasible ~slots:[ 1; 6 ] ~lower_bounds:[| 5; 5 |])

(* Brute-force cross-check of the greedy matcher. *)
let matching_matches_bruteforce =
  Support.seeded_prop ~count:500 "greedy = brute force" (fun rng ->
      let n_slots = Prng.int rng 5 in
      let n_fillers = Prng.int rng 6 in
      let slots =
        List.sort_uniq compare (List.init n_slots (fun _ -> Prng.int rng 8))
      in
      let lbs = Array.init n_fillers (fun _ -> Prng.int rng 8) in
      let greedy = Matching.feasible ~slots ~lower_bounds:lbs in
      (* brute force: try all injections slots -> fillers *)
      let rec brute slots used =
        match slots with
        | [] -> true
        | s :: rest ->
          List.exists
            (fun f ->
              (not (List.mem f used)) && lbs.(f) <= s && brute rest (f :: used))
            (List.init n_fillers (fun f -> f))
      in
      greedy = brute slots [])

let () =
  Alcotest.run "kernel"
    [
      ( "prng",
        [
          Support.quick "deterministic" prng_deterministic;
          Support.quick "seed sensitivity" prng_seed_sensitivity;
          Support.quick "split" prng_split;
          prng_bounds;
          prng_shuffle_permutes;
          prng_choose_member;
          prng_float_unit;
        ] );
      ( "bitset",
        [
          Support.quick "empty" bitset_empty;
          Support.quick "add/mem across words" bitset_add_mem;
          Support.quick "add idempotent" bitset_add_idempotent;
          Support.quick "remove" bitset_remove;
          Support.quick "immutability" bitset_immutable;
          Support.quick "is_full" bitset_full;
          Support.quick "out of range" bitset_out_of_range;
          bitset_equal_hash;
          bitset_roundtrip;
        ] );
      ( "fingerprint",
        [
          Support.quick "zero/empty digests" fingerprint_zero_empty;
          fingerprint_flat_absorbers;
          Support.quick "seeding" fingerprint_seeding;
          Support.quick "collision smoke (10^5 x 2 seeds)"
            fingerprint_collision_smoke;
        ] );
      ( "striped_set",
        [
          Support.quick "add/mem/clear" striped_add_mem;
          Support.quick "stripe rounding" striped_stripes_pow2;
          Support.quick "growth past initial capacity" striped_growth;
          Support.quick "concurrent same-fingerprint race"
            striped_concurrent_race;
          Support.quick "dispersion with fixed raw low bits"
            striped_dispersion_fixed_low_bits;
          Support.quick "cardinal snapshots under concurrent adds"
            striped_snapshot_under_adds;
          Support.quick "clear under concurrent adds"
            striped_clear_under_adds;
          Support.quick "occupancy reset by clear" striped_occupancy_reset;
        ] );
      ( "shard_set",
        [
          Support.quick "add/mem/owner" shard_add_mem;
          Support.quick "owner dispersion" shard_owner_uniform;
          Support.quick "owner/stripe bit disjointness"
            shard_owner_keeps_stripes_uniform;
          Support.quick "parallel single-owner discipline"
            shard_parallel_ownership;
        ] );
      ( "fp_set",
        [ Support.quick "model against Hashtbl" fp_set_model ] );
      ( "spsc",
        [
          Support.quick "fifo" spsc_fifo;
          Support.quick "cross-domain handoff" spsc_cross_domain;
        ] );
      ( "barrier",
        [
          Support.quick "lock-step rounds" barrier_rounds;
          Support.quick "poison before await" barrier_poison;
          Support.quick "poison wakes blocked waiters"
            barrier_poison_wakes_waiters;
        ] );
      ( "matching",
        [
          Support.quick "simple" matching_simple;
          Support.quick "exact assignment" matching_exact_assignment;
          Support.quick "insufficient fillers" matching_insufficient_fillers;
          Support.quick "hall violation" matching_hall_violation;
          matching_matches_bruteforce;
        ] );
    ]
