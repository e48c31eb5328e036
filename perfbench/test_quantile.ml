(* Known-answer tests for the benchmark's exact quantiles. *)

open Elin_perfbench

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let feq a b = Float.abs (a -. b) < 1e-12

let one_to n = Array.init n (fun i -> float_of_int (i + 1))

let () =
  let s = Quantile.summarize (one_to 100) in
  check "1..100 p50" (feq s.Quantile.p50 50.);
  check "1..100 p99" (feq s.Quantile.p99 99.);
  check "1..100 p100" (feq (Quantile.at (Quantile.sorted (one_to 100)) 100.) 100.);
  check "1..100 mean" (feq s.Quantile.mean 50.5);
  check "1..100 resolved" (s.Quantile.resolved_pct = Some 90.);
  let s = Quantile.summarize (one_to 1000) in
  check "1..1000 p99" (feq s.Quantile.p99 990.);
  check "1..1000 resolved" (s.Quantile.resolved_pct = Some 99.);
  let s = Quantile.summarize [| 7. |] in
  check "single p50" (feq s.Quantile.p50 7.);
  check "single p99" (feq s.Quantile.p99 7.);
  check "single unresolved" (s.Quantile.resolved_pct = None);
  check "ten unresolved" ((Quantile.summarize (one_to 10)).Quantile.resolved_pct = None);
  (* Two samples: nearest rank of p50 is the first, p99 the second. *)
  let s = Quantile.summarize [| 3.; 1. |] in
  check "pair p50" (feq s.Quantile.p50 1.);
  check "pair p99" (feq s.Quantile.p99 3.);
  (* A heavy tail: p99 stays a sample and never exceeds the max. *)
  let skew = Array.init 1000 (fun i -> if i < 995 then 1. else 1e6 +. float_of_int i) in
  let s = Quantile.summarize skew in
  check "skew p99 is a sample" (feq s.Quantile.p99 1.);
  check "skew p99 <= max" (s.Quantile.p99 <= s.Quantile.max);
  (* Order independence, and p99 <= max, over seeded permutations. *)
  let rng = Random.State.make [| 42 |] in
  for trial = 1 to 200 do
    let n = 1 + Random.State.int rng 500 in
    let xs = Array.init n (fun _ -> Float.of_int (Random.State.int rng 1000) /. 7.) in
    let ys = Array.copy xs in
    for i = n - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let t = ys.(i) in
      ys.(i) <- ys.(j);
      ys.(j) <- t
    done;
    let a = Quantile.summarize xs and b = Quantile.summarize ys in
    let name = Printf.sprintf "trial %d" trial in
    check (name ^ " order") (a = b);
    check (name ^ " p99 <= max") (a.Quantile.p99 <= a.Quantile.max);
    check (name ^ " p50 >= min") (a.Quantile.p50 >= a.Quantile.min);
    check (name ^ " p50 <= p99") (a.Quantile.p50 <= a.Quantile.p99)
  done;
  check "empty raises"
    (match Quantile.summarize [||] with
    | _ -> false
    | exception Invalid_argument _ -> true);
  if !failures > 0 then exit 1;
  print_endline "quantile: all checks passed"
