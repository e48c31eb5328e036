(* Exact quantiles over raw samples.

   Every quantile the benchmark reports is the nearest-rank value: the
   smallest sample such that at least p% of all samples are <= it.  It
   is always one of the samples, so it can never exceed the maximum or
   undercut the minimum (the clamp below only states that invariant),
   and it does not depend on the order the samples arrived in. *)

type summary = {
  n : int;
  min : float;
  max : float;
  mean : float;
  p50 : float;
  p99 : float;
  resolved_pct : float option;
      (* the highest percentile with at least [tail] samples beyond it;
         [None] when there are too few samples for any *)
}

(* Samples a percentile needs above its rank before it is reported as
   resolved. *)
let tail = 10

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* The 1-based nearest rank ceil(p/100 * n), computed so that exact
   products (p = 99, n = 100) are not pushed up a rank by rounding. *)
let rank ~n p =
  let x = p /. 100. *. float_of_int n in
  let r = Float.round x in
  let r = if Float.abs (x -. r) < 1e-9 then r else Float.ceil x in
  max 1 (min n (int_of_float r))

(* [at sorted p] — the nearest-rank [p]-th percentile of an ascending
   array, 0 < p <= 100. *)
let at sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Quantile.at: no samples";
  if not (p > 0. && p <= 100.) then invalid_arg "Quantile.at: p outside (0, 100]";
  let v = sorted.(rank ~n p - 1) in
  Float.min sorted.(n - 1) (Float.max sorted.(0) v)

(* The largest p whose rank leaves [tail] samples above it:
   ceil(p n / 100) <= n - tail. *)
let resolved_pct n =
  if n <= tail then None
  else Some (100. *. float_of_int (n - tail) /. float_of_int n)

let summarize xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then invalid_arg "Quantile.summarize: no samples";
  {
    n;
    min = s.(0);
    max = s.(n - 1);
    mean = Array.fold_left ( +. ) 0. s /. float_of_int n;
    p50 = at s 50.;
    p99 = at s 99.;
    resolved_pct = resolved_pct n;
  }

let median xs = (summarize xs).p50

let describe ~unit s =
  Printf.sprintf "n=%d min=%.4g p50=%.4g p99=%.4g max=%.4g %s; %s" s.n s.min
    s.p50 s.p99 s.max unit
    (match s.resolved_pct with
    | Some p -> Printf.sprintf "highest percentile with %d samples beyond: p%.4g" tail p
    | None -> Printf.sprintf "no percentile has %d samples beyond it" tail)
