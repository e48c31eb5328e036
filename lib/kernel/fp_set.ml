(* Open addressing over a [Bytes] buffer of native-endian int64 slots.
   The slot count is a power of two, [1 lsl bits]; a key's probe
   sequence starts at its Fibonacci hash (the top [bits] bits of
   [fp * 2^64/phi]) and walks forward one slot at a time.  The hash
   reads every bit of the raw fingerprint, so it stays uniform inside
   one {!Striped_set} stripe or {!Shard_set} shard, whose members all
   share some bits of {!Fingerprint.mix}.  Nothing is ever deleted, so
   an empty slot ends every probe. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* 256 slots, 2 KiB: small enough that a fresh stripe or shard costs
   little, and the first few doublings are cheap. *)
let initial_bits = 8

type t = {
  mutable keys : Bytes.t;
  mutable bits : int;
  mutable count : int;  (* non-zero members *)
  mutable has_zero : bool;
}

let empty_keys bits = Bytes.make (8 lsl bits) '\000'

let create () =
  { keys = empty_keys initial_bits; bits = initial_bits; count = 0;
    has_zero = false }

let[@inline] home (fp : int64) bits =
  Int64.to_int
    (Int64.shift_right_logical (Int64.mul fp 0x9E3779B97F4A7C15L) (64 - bits))

(* Slot index holding [fp], or of the empty slot that ends its probe
   sequence.  [fp <> 0L]. *)
let[@inline] slot keys bits (fp : int64) =
  let mask = (1 lsl bits) - 1 in
  let i = ref (home fp bits) in
  while
    let k = get64 keys (!i lsl 3) in
    k <> fp && k <> 0L
  do
    i := (!i + 1) land mask
  done;
  !i

(* Double the table once it is half full: probes stay short and a
   member costs at most 32 bytes. *)
let grow t =
  let old = t.keys in
  let bits = t.bits + 1 in
  let keys = empty_keys bits in
  for j = 0 to (Bytes.length old lsr 3) - 1 do
    let k = get64 old (j lsl 3) in
    if k <> 0L then set64 keys (slot keys bits k lsl 3) k
  done;
  t.keys <- keys;
  t.bits <- bits

let add t (fp : int64) =
  if fp = 0L then
    if t.has_zero then false
    else begin
      t.has_zero <- true;
      true
    end
  else begin
    let off = slot t.keys t.bits fp lsl 3 in
    if get64 t.keys off <> 0L then false
    else begin
      set64 t.keys off fp;
      t.count <- t.count + 1;
      if 2 * t.count > 1 lsl t.bits then grow t;
      true
    end
  end

let mem t (fp : int64) =
  if fp = 0L then t.has_zero
  else get64 t.keys (slot t.keys t.bits fp lsl 3) <> 0L

let length t = t.count + if t.has_zero then 1 else 0

let reset t =
  t.keys <- empty_keys initial_bits;
  t.bits <- initial_bits;
  t.count <- 0;
  t.has_zero <- false

let to_array t =
  (* Slot 0 of the result is already 0L, so a [has_zero] set just
     starts filling at 1. *)
  let a = Array.make (length t) 0L in
  let n = ref (if t.has_zero then 1 else 0) in
  for j = 0 to (Bytes.length t.keys lsr 3) - 1 do
    let k = get64 t.keys (j lsl 3) in
    if k <> 0L then begin
      a.(!n) <- k;
      incr n
    end
  done;
  a
