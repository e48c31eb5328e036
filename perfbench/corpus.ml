(* Seeded job corpora with answers known from how each history was
   built, never from the checker under test:

   - [Gen.linearizable] histories linearize by construction: pass, and
     min_t = 0;
   - the unsat register histories (the [Net.Load] large class, with
     distinct written values) refute by construction: violation;
   - [Locality.register_family k] has min_t = 4k - 2 (paper Prop. 9:
     the reads of 0 are forgiven only once every write's response is
     cut), so it is not linearizable and is t-linearizable exactly
     from t = 4k - 2;
   - [Serafini.delayed_winner_family n] has min_t = 2n + 2 (the second
     winner is legal only once every response of p0 is cut);
   - [Gen.eventually_linearizable] / [Gen.mixed_eventual] histories are
     weakly consistent and t-linearizable at the stabilization bound
     the generator returns, so min_t <= that bound. *)

open Elin_kernel
open Elin_spec
open Elin_history
open Elin_checker
open Elin_svc

type expect =
  | Pass
  | Violation
  | Min_t of int  (* pass, with exactly this bound *)
  | Min_t_at_most of int  (* pass, with a bound no larger *)

type item = {
  job : Job.t;
  line : string;  (* the job's wire line *)
  expect : expect;
  objs : int;  (* objects the history touches *)
}

let answer_ok expect (v : Verdict.t) =
  match (expect, v.Verdict.status) with
  | Pass, Verdict.Pass | Violation, Verdict.Violation -> true
  | Min_t k, Verdict.Pass -> v.Verdict.min_t = Some k
  | Min_t_at_most k, Verdict.Pass -> (
    match v.Verdict.min_t with Some m -> m <= k | None -> false)
  | _ -> false

let make_item ~id ~seq ~spec ~check ~budget ~timeout_ms h expect =
  let history_text = Textio.to_string h in
  let job =
    {
      Job.id;
      seq;
      spec;
      check;
      node_budget = budget;
      timeout_ms;
      history_text;
      trace = None;
      parent = None;
    }
  in
  { job; line = Job.to_line job; expect; objs = List.length (History.objs h) }

let fai = Faicounter.spec ()

(* ------------------------------------------------------------------ *)
(* serve-closed: the Net.Load small/large classes, every history distinct *)
(* ------------------------------------------------------------------ *)

let large_depth = 6

(* The unsat family at depth [large_depth]: pending writes of distinct
   values v1..vd race a reader that sees v1, v2, ..., vd and then v1
   again — impossible, since v1 is written once.  Refuting it walks the
   pending-write interleavings.  The values are drawn per job so that
   no two jobs share a history. *)
let unsat_history rng =
  let values =
    List.filteri (fun i _ -> i < large_depth)
      (Prng.shuffle rng (List.init 16 (fun i -> i + 1)))
  in
  let events =
    List.mapi (fun i v -> Event.invoke ~proc:(i + 1) ~obj:0 (Op.write v)) values
    @ List.concat_map
        (fun v ->
          [ Event.invoke ~proc:0 ~obj:0 Op.read; Event.respond ~proc:0 ~obj:0 (Value.int v) ])
        values
    @ [
        Event.invoke ~proc:0 ~obj:0 Op.read;
        Event.respond ~proc:0 ~obj:0 (Value.int (List.hd values));
      ]
  in
  History.of_events events

(* An 8-op linearizable fetch&increment history on two processes whose
   ids are drawn from 0..7, so that distinct jobs rarely collide. *)
let small_history rng =
  let h = Gen.linearizable rng ~spec:fai ~procs:2 ~n_ops:8 () in
  let a = Prng.int rng 8 in
  let b = (a + 1 + Prng.int rng 7) mod 8 in
  History.of_events
    (List.map
       (fun (e : Event.t) -> { e with Event.proc = (if e.Event.proc = 0 then a else b) })
       (History.events h))

(* [serve_jobs ~seed ~n] — [n] jobs, about 9 small to 1 large, every
   history text distinct.  Ids are unique within the corpus. *)
let serve_jobs ~seed ~n =
  let rng = Prng.create seed in
  let seen = Hashtbl.create (2 * n) in
  let rec fresh gen =
    let h = gen rng in
    let text = Textio.to_string h in
    if Hashtbl.mem seen text then fresh gen
    else begin
      Hashtbl.add seen text ();
      h
    end
  in
  Array.init n (fun i ->
      let small = Prng.int rng 10 < 9 in
      let h = fresh (if small then small_history else unsat_history) in
      make_item
        ~id:(Printf.sprintf "so-%d-%s" i (if small then "s" else "l"))
        ~seq:i
        ~spec:(if small then "fetch&increment" else "elin.load.reg")
        ~check:Job.Linearizable ~budget:(Some 500_000) ~timeout_ms:(Some 2_000) h
        (if small then Pass else Violation))

(* ------------------------------------------------------------------ *)
(* batch-heavy: four history families under several check kinds       *)
(* ------------------------------------------------------------------ *)

(* One history and the (check, answer) pairs it is submitted under.
   [slot] fixes the family and its size parameters, so that every seed
   gets the same mix; the seed draws the histories themselves. *)
let family rng slot =
  let round = slot / 20 mod 2 and slot = slot mod 20 in
  if slot < 6 then
    let h, b =
      Gen.eventually_linearizable rng ~spec:fai ~procs:(2 + (slot mod 2))
        ~prefix_ops:(3 + (slot mod 3)) ~suffix_ops:(3 + (slot mod 4)) ()
    in
    ( "fetch&increment",
      h,
      [
        (Job.Min_t, Min_t_at_most b);
        (Job.T_lin b, Pass);
        (Job.Weak, Pass);
        (Job.Full, Min_t_at_most b);
      ] )
  else if slot < 10 then
    let h, b =
      Gen.mixed_eventual rng
        ~spec_of_obj:(fun _ -> fai)
        ~objs:(2 + (slot mod 2)) ~procs:2 ~prefix_ops:(2 + (slot / 2 mod 2))
        ~suffix_ops:(2 + round + (slot mod 2)) ()
    in
    ( "fetch&increment",
      h,
      [
        (Job.Min_t, Min_t_at_most b);
        (Job.T_lin b, Pass);
        (Job.Weak, Pass);
        (Job.Full, Min_t_at_most b);
      ] )
  else if slot < 13 then
    let k = 2 + (slot - 10) + (2 * round) in
    let m = (4 * k) - 2 in
    ( "register",
      Locality.register_family k,
      [
        (Job.Min_t, Min_t m);
        (Job.Linearizable, Violation);
        (Job.T_lin m, Pass);
        (Job.T_lin (m - 1), Violation);
        (Job.Weak, Pass);
        (Job.Full, Min_t m);
      ] )
  else if slot < 16 then
    let n = 1 + (slot - 13) + (3 * round) in
    let m = (2 * n) + 2 in
    ( "test&set",
      Serafini.delayed_winner_family n,
      [
        (Job.Min_t, Min_t m);
        (Job.Linearizable, Violation);
        (Job.T_lin m, Pass);
        (Job.T_lin (m - 1), Violation);
        (Job.Weak, Pass);
        (Job.Full, Min_t m);
      ] )
  else
    let h = Gen.linearizable rng ~spec:fai ~procs:3 ~n_ops:(6 + slot - 16) () in
    ( "fetch&increment",
      h,
      [
        (Job.Linearizable, Pass);
        (Job.Min_t, Min_t 0);
        (Job.Weak, Pass);
        (Job.Full, Min_t 0);
      ] )

(* [batch_jobs ~seed ~histories] — every check of [histories] seeded
   histories: slots cycle through the families in fixed proportions
   (30% eventual, 20% mixed-object eventual, 15% register family, 15%
   delayed winner, 20% linearizable) and the seed shuffles their order. *)
let batch_jobs ~seed ~histories =
  let rng = Prng.create seed in
  let slots = Prng.shuffle rng (List.init histories Fun.id) in
  let seq = ref 0 in
  Array.of_list
    (List.concat_map
       (fun slot ->
         let spec, h, checks = family rng slot in
         List.map
           (fun (check, expect) ->
             let i = !seq in
             incr seq;
             make_item ~id:(Printf.sprintf "bh-%d" i) ~seq:i ~spec ~check
               ~budget:None ~timeout_ms:None h expect)
           checks)
       slots)

(* Share of jobs whose (spec, history) repeats an earlier job's. *)
let shared_history_frac items =
  let seen = Hashtbl.create 1024 in
  let shared =
    Array.fold_left
      (fun acc it ->
        let k = (it.job.Job.spec, it.job.Job.history_text) in
        if Hashtbl.mem seen k then acc + 1
        else begin
          Hashtbl.add seen k ();
          acc
        end)
      0 items
  in
  float_of_int shared /. float_of_int (max 1 (Array.length items))
