(* CRC-32 (IEEE), reflected, table-driven.  The accumulator is kept
   pre-inverted (the classic ~crc representation) so [update] is one
   table lookup and two xors per byte; [finish] undoes the inversion. *)

type t = int

(* Built eagerly: a [lazy] table forced for the first time by two
   domains at once raises [CamlinternalLazy.Undefined] in one of them
   (the sharded engine's spill workers checksum segments in parallel). *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let start = 0xFFFFFFFF

let update (c : t) b off len =
  if off < 0 || len < 0 || off + len > Bytes.length b then
    invalid_arg "Crc32.update";
  let c = ref c in
  for i = off to off + len - 1 do
    c := table.((!c lxor Char.code (Bytes.unsafe_get b i)) land 0xff)
         lxor (!c lsr 8)
  done;
  !c

let update_string c s = update c (Bytes.unsafe_of_string s) 0 (String.length s)

let finish c = c lxor 0xFFFFFFFF

let digest_string s = finish (update_string start s)
