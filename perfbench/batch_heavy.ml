(* batch-heavy: a closed loop over the in-process path behind
   [elin batch --decompose]: [Split.run_lines] at two domains, then
   [Verdict.to_line] for every verdict, pass after pass over one seeded
   corpus.  A pass runs from the first line parsed to the last verdict
   line written; the next starts when it ends. *)

open Elin_svc

let domains = 2
let histories = 1200
let setup_rounds = 5

let lines (items : Corpus.item array) = Array.to_list (Array.map (fun it -> it.Corpus.line) items)

(* One pass; returns its wall time, the verdicts' service times (us)
   and the number of wrong or missing answers. *)
let pass (items : Corpus.item array) lines =
  let t0 = Spans.now () in
  let verdicts = Split.run_lines ~domains lines in
  List.iter (fun v -> ignore (Sys.opaque_identity (Verdict.to_line v))) verdicts;
  let wall_s = Int64.to_float (Int64.sub (Spans.now ()) t0) /. 1e9 in
  let wrong = ref (Array.length items - List.length verdicts) in
  List.iter
    (fun (v : Verdict.t) ->
      if not (Corpus.answer_ok items.(v.Verdict.seq).Corpus.expect v) then incr wrong)
    verdicts;
  (wall_s, List.map (fun (v : Verdict.t) -> v.Verdict.wall_ms *. 1e3) verdicts, !wrong)

(* Set-up: corpus generation plus a warm-up pass over a tenth of it,
   [setup_rounds] times; the median is reported. *)
let setup ~seed =
  let round () =
    let t0 = Unix.gettimeofday () in
    let items = Corpus.batch_jobs ~seed ~histories in
    let warm = Array.sub items 0 (Array.length items / 10) in
    let _, _, wrong = pass warm (lines warm) in
    if wrong > 0 then failwith "perfbench: batch-heavy warm-up mis-answered jobs";
    (Unix.gettimeofday () -. t0, items)
  in
  let times = ref [] and last = ref [||] in
  for _ = 1 to setup_rounds do
    let dt, items = round () in
    times := dt :: !times;
    last := items
  done;
  (Quantile.median (Array.of_list !times), !last)

(* Passes until [seconds] have gone (at least one, and no pass started
   that the mean pass time says would end past the deadline).  Each
   pass starts from a collected heap, as a fresh [elin batch] would.
   Also returns the peak RSS once the first pass is done: repeated
   pools in one process keep growing it, which one [elin batch] run
   never sees. *)
let passes items ~seconds =
  let ls = lines items in
  let t0 = Unix.gettimeofday () in
  let rss = ref 0. in
  let rec go acc =
    let walls = List.map (fun (w, _, _) -> w) acc in
    let mean = List.fold_left ( +. ) 0. walls /. float_of_int (max 1 (List.length walls)) in
    if acc <> [] && Unix.gettimeofday () -. t0 +. mean > seconds then List.rev acc
    else begin
      Gc.full_major ();
      let r = pass items ls in
      if acc = [] then rss := Proc.vm_hwm_mb ();
      go (r :: acc)
    end
  in
  let runs = go [] in
  (runs, !rss)

let summarize items runs =
  let n = Array.length items in
  let rates = Array.of_list (List.map (fun (w, _, _) -> float_of_int n /. w) runs) in
  let service = Array.of_list (List.concat_map (fun (_, s, _) -> s) runs) in
  let wrong = List.fold_left (fun a (_, _, w) -> a + w) 0 runs in
  (rates, service, wrong)

let e2e ~seed ~seconds =
  let setup_s, items = setup ~seed in
  let runs, rss = passes items ~seconds in
  let rates, service, wrong = summarize items runs in
  let lat = Quantile.summarize (Array.map (fun us -> us /. 1e3) service) in
  (* Each pass's exact quantiles, then the median over passes. *)
  let per_pass f =
    Quantile.median
      (Array.of_list
         (List.map (fun (_, s, _) -> f (Quantile.summarize (Array.of_list s)) /. 1e3) runs))
  in
  let n = Array.length items * List.length runs in
  {
    Out.correct = wrong = 0;
    attempted = n;
    failed = wrong;
    metrics =
      [
        Out.m "setup_s" "s" setup_s;
        Out.m "latency_p50_ms" "ms" (per_pass (fun q -> q.Quantile.p50));
        Out.m "throughput_per_s" "1/s" (Quantile.median rates);
        Out.m "peak_rss_mb" "MB" rss;
      ];
    notes =
      [
        Printf.sprintf "batch-heavy: %d jobs x %d passes at %d domains, seed %d" (Array.length items)
          (List.length runs) domains seed;
        "  batch_jobs_per_s (per pass): " ^ Quantile.describe ~unit:"jobs/s" (Quantile.summarize rates);
        "  passes: " ^ String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.0f") rates));
        Printf.sprintf "  per-job service time: p99 %.4g ms (median over passes)"
          (per_pass (fun q -> q.Quantile.p99));
        "  per-job service time, all passes: " ^ Quantile.describe ~unit:"ms" lat;
      ];
  }

(* The traced run: untraced passes for a third of the time, the direct
   rung once over the corpus, then passes again with a span per pass.
   Costs are per job in domain-us (wall x domains / jobs), so the
   sequential direct rung and the two-domain pool rung add up. *)
let traced ~seed ~seconds =
  let _, items = setup ~seed in
  let n = Array.length items in
  let plain, _ = passes items ~seconds:(seconds /. 3.) in
  let spans = Spans.create () in
  let t = Direct.run spans ~resolve:Pool.default_resolve items in
  let pooled, _ = passes items ~seconds:(seconds /. 3.) in
  Spans.write spans "_perfbench/batch-heavy.spans.jsonl";
  let rates_plain, _, wrong_plain = summarize items plain in
  let rates_pool, service, wrong_pool = summarize items pooled in
  let domain_us rate = float_of_int domains /. rate *. 1e6 in
  let per_job name = Spans.self_ns spans name /. float_of_int n /. 1e3 in
  let direct_us =
    per_job "history.parse" +. per_job "svc.codec" +. per_job "svc.split"
    +. per_job "checker.prepare" +. per_job "checker.check"
  in
  let pool_us = domain_us (Quantile.median rates_pool) in
  let plain_us = domain_us (Quantile.median rates_plain) in
  let q = Quantile.summarize service in
  let check_ns = Spans.self_ns spans "checker.check" in
  let failed = wrong_plain + wrong_pool + t.Direct.wrong in
  {
    Out.correct = failed = 0;
    attempted = (n * (List.length plain + List.length pooled)) + n + t.Direct.decomposed;
    failed;
    metrics =
      Out.layers
        [
          ("history.parse_us", per_job "history.parse");
          ("svc.codec_us", per_job "svc.codec");
          ("svc.split_us", per_job "svc.split");
          ("checker.prepare_us", per_job "checker.prepare");
          ("checker.check_us", per_job "checker.check");
          ("checker.nodes", float_of_int t.Direct.nodes /. float_of_int n);
          ("checker.ns_per_node", check_ns /. float_of_int (max 1 t.Direct.nodes));
          ( "checker.memo_hit_ratio",
            float_of_int t.Direct.memo_hits
            /. float_of_int (max 1 (t.Direct.nodes + t.Direct.memo_hits)) );
          ("checker.words_per_job", t.Direct.words /. float_of_int n);
          ( "eventual.probes_per_job",
            float_of_int t.Direct.probes /. float_of_int (max 1 t.Direct.min_t_jobs) );
          ( "decompose.check_us",
            t.Direct.decompose_ns /. float_of_int (max 1 t.Direct.decomposed) /. 1e3 );
          ( "decompose.nodes",
            float_of_int t.Direct.decompose_nodes /. float_of_int (max 1 t.Direct.decomposed) );
          ("svc.shared_history_frac", Corpus.shared_history_frac items);
          ("svc.pool_service_us_p50", q.Quantile.p50);
          ("svc.pool_service_us_p99", q.Quantile.p99);
          ("svc.pool_self_us", pool_us -. direct_us);
          ("trace_overhead_frac", Quantile.median rates_plain /. Quantile.median rates_pool -. 1.);
          (* parse + codec + split + prepare + check + pool sums to the
             traced pool rung by construction; the residual is what the
             untraced passes do not account for. *)
          ("ladder.residual_frac", (plain_us -. pool_us) /. plain_us);
        ];
    notes =
      [
        Printf.sprintf
          "batch-heavy traced: %d jobs; domain-us per job: direct %.1f, pool %.1f (untraced %.1f)"
          n direct_us pool_us plain_us;
      ];
  }
