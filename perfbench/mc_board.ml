(* mc-board: [Mc.check] over fai/board, 2 processes x 4 fetch&inc,
   depth 26, [Engine.linearizable] at every leaf, two domains, engine,
   POR and dedup at the library defaults — what [elin mc] runs.  The
   seed does not change this input.

   Known answer: the counts below, which every check must reproduce. *)

open Elin_spec
open Elin_checker
open Elin_runtime
open Elin_explore
open Elin_mc

let domains = 2
let depth = 26
let warm_depth = 16

type expected = {
  states : int;
  kept : int;
  dedup_hits : int;
  pruned : int;
  leaves : int;
  cut : int;
  levels : int;
  per_domain : int array;
}

let expected =
  {
    states = 608_105;
    kept = 608_104;
    dedup_hits = 0;
    pruned = 81_898;
    leaves = 122_158;
    cut = 0;
    levels = 25;
    per_domain = [| 304_054; 304_051 |];
  }

let counts (s : Search.stats) =
  {
    states = s.Search.states;
    kept = s.Search.kept;
    dedup_hits = s.Search.dedup_hits;
    pruned = s.Search.pruned;
    leaves = s.Search.leaves;
    cut = s.Search.cut;
    levels = s.Search.levels;
    per_domain = s.Search.per_domain;
  }

let describe c =
  Printf.sprintf "states %d kept %d dedup_hits %d pruned %d leaves %d cut %d levels %d per_domain [%s]"
    c.states c.kept c.dedup_hits c.pruned c.leaves c.cut c.levels
    (String.concat "; " (Array.to_list (Array.map string_of_int c.per_domain)))

type input = {
  impl : Impl.t;
  workloads : Op.t list array;
  cfg : Engine.config;
}

let input () =
  {
    impl = Impls.fai_from_board ();
    workloads = Run.uniform_workload Op.fetch_inc ~procs:2 ~per_proc:4;
    cfg = Engine.for_spec (Faicounter.spec ());
  }

let check ?(max_steps = depth) inp =
  let t0 = Spans.now () in
  let out =
    Mc.check inp.impl ~workloads:inp.workloads ~max_steps ~domains (fun h ->
        Engine.linearizable inp.cfg h)
  in
  (out, Int64.to_float (Int64.sub (Spans.now ()) t0) /. 1e9)

(* Set-up: build the input and warm up with a depth-[warm_depth]
   check. *)
let setup () =
  let t0 = Unix.gettimeofday () in
  let inp = input () in
  let out, _ = check ~max_steps:warm_depth inp in
  if not out.Mc.ok then failwith "perfbench: mc-board warm-up found a violation";
  (Unix.gettimeofday () -. t0, inp)

let answer_ok (out : Mc.outcome) = out.Mc.ok && counts out.Mc.stats = expected

(* One set-up and one check in a process of its own, as one [elin mc]
   run: prints "<setup_s> <wall_s> <peak_rss_mb> <ok>" and the counts. *)
let child () =
  let setup_s, inp = setup () in
  let out, wall = check inp in
  let rss = Proc.vm_hwm_mb () in
  Printf.printf "%.17g %.17g %.17g %b\n%s\n%!" setup_s wall rss (answer_ok out)
    (describe (counts out.Mc.stats))

(* Child processes, one after another, until [seconds] have gone (at
   least one, and none started that the mean child time says would end
   past the deadline).  A fresh process per check keeps one check's
   garbage and resident set out of the next, and makes set-up happen
   once per check. *)
let e2e ~exe ~seconds =
  let run_child () =
    let ic =
      Unix.open_process_args_in exe [| exe; "--workload"; "mc-board-child"; "--seconds"; "1" |]
    in
    let first = try Some (input_line ic) with End_of_file -> None in
    let second = try input_line ic with End_of_file -> "" in
    let status = Unix.close_process_in ic in
    match (first, status) with
    | Some line, Unix.WEXITED 0 ->
      Scanf.sscanf line "%f %f %f %B" (fun setup_s wall rss ok -> Some (setup_s, wall, rss, ok, second))
    | _ -> None
  in
  let t0 = Unix.gettimeofday () in
  let rec go acc spent =
    let n = List.length acc in
    if n > 0 && Unix.gettimeofday () -. t0 +. (spent /. float_of_int n) > seconds then List.rev acc
    else
      let c0 = Unix.gettimeofday () in
      let r = run_child () in
      go (r :: acc) (spent +. Unix.gettimeofday () -. c0)
  in
  let runs = go [] 0. in
  let good = List.filter_map Fun.id runs in
  let failed = List.length runs - List.length (List.filter (fun (_, _, _, ok, _) -> ok) good) in
  let arr f = Array.of_list (List.map f good) in
  let walls = if good = [] then [| 0. |] else arr (fun (_, w, _, _, _) -> w) in
  let lat = Quantile.summarize (Array.map (fun s -> s *. 1e3) walls) in
  let rates = Array.map (fun w -> float_of_int expected.states /. w) walls in
  let med f = if good = [] then 0. else Quantile.median (arr f) in
  {
    Out.correct = failed = 0;
    attempted = List.length runs;
    failed;
    metrics =
      [
        Out.m "setup_s" "s" (med (fun (s, _, _, _, _) -> s));
        Out.m "latency_p50_ms" "ms" lat.Quantile.p50;
        Out.m "throughput_per_s" "1/s" (Quantile.median rates);
        Out.m "peak_rss_mb" "MB" (med (fun (_, _, r, _, _) -> r));
      ];
    notes =
      (Printf.sprintf "mc-board: fai/board 2x4 depth %d, %d domains, %d checks, one process each"
         depth domains (List.length runs)
      :: ("  mc_states_per_s: " ^ Quantile.describe ~unit:"states/s" (Quantile.summarize rates))
      :: ("  check wall: " ^ Quantile.describe ~unit:"ms" lat)
      :: List.map (fun (_, _, rss, _, c) -> Printf.sprintf "  %s (peak %.0f MB)" c rss) good);
  }

(* ------------------------------------------------------------------ *)
(* The traced run: the benchmark's own Search.bfs loop                 *)
(* ------------------------------------------------------------------ *)

(* Per-domain accumulators.  [Search]'s default engine spawns fresh
   domains per level, so each domain registers its own record on first
   use and the records are summed at the end. *)
type acc = {
  mutable succ_ns : float;
  mutable succ_words : float;
  mutable fp_ns : float;
  mutable fp_calls : int;
  mutable leaf_ns : float;
  mutable leaf_calls : int;
  fps : Buffer.t;  (* every fingerprint computed, 8 bytes each *)
}

let registry = ref []
let registry_lock = Mutex.create ()

let key =
  Domain.DLS.new_key (fun () ->
      let a =
        {
          succ_ns = 0.;
          succ_words = 0.;
          fp_ns = 0.;
          fp_calls = 0;
          leaf_ns = 0.;
          leaf_calls = 0;
          fps = Buffer.create 4096;
        }
      in
      Mutex.protect registry_lock (fun () -> registry := a :: !registry);
      a)

let since t0 = Int64.to_float (Int64.sub (Spans.now ()) t0)

(* The same search [Mc.check] runs (its [drive]: POR on, dedup on,
   sleep sets merged at the barrier, leaves classified by the
   predicate), built from the public [Canon] functions with a timer and
   allocation counter around each. *)
let traced_bfs inp =
  registry := [];
  let pruned = Atomic.make 0 in
  let leaf c =
    let a = Domain.DLS.get key in
    let t0 = Spans.now () in
    let h = Explore.history c in
    let r = if Engine.linearizable inp.cfg h then None else Some h in
    a.leaf_ns <- a.leaf_ns +. since t0;
    a.leaf_calls <- a.leaf_calls + 1;
    r
  in
  let expand (node : Canon.node) =
    let c = node.Canon.config in
    if Explore.is_done c then Search.Leaf (leaf c)
    else if c.Explore.steps >= depth then Search.Cut (leaf c)
    else begin
      let a = Domain.DLS.get key in
      let w0 = Gc.minor_words () in
      let t0 = Spans.now () in
      let kids = Canon.successors ~por:true ~pruned inp.impl node in
      a.succ_ns <- a.succ_ns +. since t0;
      a.succ_words <- a.succ_words +. (Gc.minor_words () -. w0);
      Search.Children kids
    end
  in
  let fingerprint node =
    let a = Domain.DLS.get key in
    let t0 = Spans.now () in
    let fp = Canon.fingerprint ~symmetry:false node in
    a.fp_ns <- a.fp_ns +. since t0;
    a.fp_calls <- a.fp_calls + 1;
    Buffer.add_int64_le a.fps fp;
    fp
  in
  let g0 = Gc.quick_stat () in
  let t0 = Spans.now () in
  let verdicts, stats =
    Search.bfs ~domains ~dedup:true ~stop_early:true ~merge:Canon.merge_sleep ~fingerprint ~expand
      ~compare:Canon.compare_history
      (Canon.root (Explore.initial_config inp.impl ~workloads:inp.workloads ()))
  in
  let wall_ns = since t0 in
  let g1 = Gc.quick_stat () in
  let words =
    g1.Gc.minor_words -. g0.Gc.minor_words +. g1.Gc.major_words -. g0.Gc.major_words
    -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)
  in
  (verdicts, { stats with Search.pruned = Atomic.get pruned }, wall_ns, words, g1.Gc.top_heap_words)

let sum f = List.fold_left (fun acc a -> acc +. f a) 0. !registry

(* Replay the run's fingerprint stream into the visited set the default
   engine uses; ns per add. *)
let replay_visited () =
  let set = Elin_kernel.Striped_set.create ~stripes:64 () in
  let t0 = Spans.now () in
  let adds =
    List.fold_left
      (fun n a ->
        let b = Buffer.to_bytes a.fps in
        let k = Bytes.length b / 8 in
        for i = 0 to k - 1 do
          ignore (Elin_kernel.Striped_set.add set (Bytes.get_int64_le b (8 * i)))
        done;
        n + k)
      0 !registry
  in
  since t0 /. float_of_int (max 1 adds)

let traced () =
  let _, inp = setup () in
  let plain, plain_wall = check inp in
  let verdicts, stats, wall_ns, words, top_heap = traced_bfs inp in
  let same = counts stats = counts plain.Mc.stats && verdicts = [] in
  let failed =
    (if answer_ok plain then 0 else 1) + (if same then 0 else 1)
  in
  let states = float_of_int stats.Search.states in
  let succ_ns = sum (fun a -> a.succ_ns) and fp_ns = sum (fun a -> a.fp_ns) in
  let leaf_ns = sum (fun a -> a.leaf_ns) in
  let fp_calls = sum (fun a -> float_of_int a.fp_calls) in
  let leaves = sum (fun a -> float_of_int a.leaf_calls) in
  let visited_ns = replay_visited () in
  let pd = Array.map float_of_int stats.Search.per_domain in
  let pd_mean = Array.fold_left ( +. ) 0. pd /. float_of_int (max 1 (Array.length pd)) in
  let generated = float_of_int (stats.Search.kept + stats.Search.dedup_hits) in
  let domain_ns = wall_ns *. float_of_int domains in
  {
    Out.correct = failed = 0;
    attempted = 2;
    failed;
    metrics =
      Out.layers
        [
          ("mc.successors_ns_per_state", succ_ns /. states);
          ("mc.successors_words_per_state", sum (fun a -> a.succ_words) /. states);
          ("mc.fingerprint_ns", fp_ns /. fp_calls);
          ("mc.fingerprint_calls_per_state", fp_calls /. states);
          ("mc.leaf_check_us", leaf_ns /. leaves /. 1e3);
          ("mc.leaves", leaves);
          ("mc.search_other_ns_per_state", (domain_ns -. succ_ns -. fp_ns -. leaf_ns) /. states);
          ("kernel.visited_add_ns", visited_ns);
          ("mc.dedup_hit_ratio", Search.dedup_rate stats);
          ( "mc.por_pruned_ratio",
            float_of_int stats.Search.pruned /. (float_of_int stats.Search.pruned +. generated) );
          ("mc.words_per_state", words /. states);
          ("mc.heap_bytes_per_state", float_of_int top_heap *. 8. /. states);
          ("mc.domain_imbalance", Array.fold_left Float.max 0. pd /. pd_mean);
          ("trace_overhead_frac", wall_ns /. 1e9 /. plain_wall -. 1.);
          (* successors + fingerprint + leaf + other sums to the traced
             wall by construction; the residual is what the untraced
             check does not account for. *)
          ("ladder.residual_frac", (plain_wall -. (wall_ns /. 1e9)) /. plain_wall);
        ];
    notes =
      [
        "mc-board traced: Mc.check  " ^ describe (counts plain.Mc.stats);
        "                 own bfs    " ^ describe (counts stats);
        Printf.sprintf "  identical counts: %b; untraced %.3f s, traced %.3f s" same plain_wall
          (wall_ns /. 1e9);
      ];
  }
