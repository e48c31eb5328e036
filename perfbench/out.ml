(* The run's result: human-readable lines, then one JSON object as the
   last line of standard output. *)

type metric = { name : string; value : float; unit : string }

type t = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
  notes : string list;  (* printed before the JSON line only *)
}

let m name unit value = { name; value; unit }

(* Finite values only: JSON has no NaN or infinity. *)
let finite v = if Float.is_finite v then v else 0.

let json r =
  let metric x =
    Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" x.name (finite x.value) x.unit
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    r.correct r.attempted r.failed
    (String.concat "," (List.map metric r.metrics))

let print r =
  List.iter print_endline r.notes;
  List.iter (fun x -> Printf.printf "  %-36s %16.6g %s\n" x.name x.value x.unit) r.metrics;
  Printf.printf "  %-36s %16.6g ratio (failed %d of %d attempted)\n" "failed_frac"
    (float_of_int r.failed /. float_of_int (max 1 r.attempted))
    r.failed r.attempted;
  print_endline (json r);
  flush stdout

(* Every per-layer metric, in the order BENCHMARK.json lists them.  A
   traced run reports all of them; a layer its workload does not
   exercise reads 0. *)
let per_layer =
  [
    ("history.parse_us", "us");
    ("svc.codec_us", "us");
    ("svc.split_us", "us");
    ("checker.prepare_us", "us");
    ("checker.check_us", "us");
    ("checker.nodes", "count");
    ("checker.ns_per_node", "ns");
    ("checker.memo_hit_ratio", "ratio");
    ("checker.words_per_job", "words");
    ("eventual.probes_per_job", "count");
    ("decompose.check_us", "us");
    ("decompose.nodes", "count");
    ("svc.shared_history_frac", "ratio");
    ("svc.pool_service_us_p50", "us");
    ("svc.pool_service_us_p99", "us");
    ("svc.pool_wait_us_p50", "us");
    ("svc.pool_wait_us_p99", "us");
    ("svc.pool_self_us", "us");
    ("net.overhead_us_p50", "us");
    ("net.overhead_us_p99", "us");
    ("net.self_us", "us");
    ("net.client_send_us", "us");
    ("net.frame_ns_per_kb", "ns");
    ("mc.successors_ns_per_state", "ns");
    ("mc.successors_words_per_state", "words");
    ("mc.fingerprint_ns", "ns");
    ("mc.fingerprint_calls_per_state", "count");
    ("mc.leaf_check_us", "us");
    ("mc.leaves", "count");
    ("mc.search_other_ns_per_state", "ns");
    ("kernel.visited_add_ns", "ns");
    ("mc.dedup_hit_ratio", "ratio");
    ("mc.por_pruned_ratio", "ratio");
    ("mc.words_per_state", "words");
    ("mc.heap_bytes_per_state", "bytes");
    ("mc.domain_imbalance", "ratio");
    ("trace_overhead_frac", "ratio");
    ("ladder.residual_frac", "ratio");
  ]

(* [layers measured] — the full per-layer list, taking each value from
   [measured] and 0 for the rest.  A name outside the list is a bug. *)
let layers measured =
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k per_layer) then invalid_arg ("Out.layers: unknown metric " ^ k))
    measured;
  List.map
    (fun (name, unit) ->
      { name; unit; value = Option.value ~default:0. (List.assoc_opt name measured) })
    per_layer
