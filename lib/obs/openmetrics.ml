(* OpenMetrics text exposition rendered from the Metrics registry.
   Hand-rolled like Jsonl: the format is line-oriented and tiny, and
   the frozen-dependency rule rules out prometheus client libs. *)

let is_name_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = ':'

(* "svc.latency_us" -> "elin_svc_latency_us".  Dots (and anything else
   outside the OpenMetrics name alphabet) become underscores; the
   "elin_" prefix namespaces us on a shared scrape endpoint. *)
let sanitize name =
  let b = Buffer.create (String.length name + 5) in
  Buffer.add_string b "elin_";
  String.iter (fun c -> Buffer.add_char b (if is_name_char c then c else '_')) name;
  Buffer.contents b

let render_snapshot snap =
  let b = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun (name, v) ->
      let n = sanitize name in
      match (v : Metrics.value) with
      | Metrics.Counter_v c ->
          line "# TYPE %s counter" n;
          line "%s_total %d" n c
      | Metrics.Gauge_v g ->
          line "# TYPE %s gauge" n;
          line "%s %d" n g
      | Metrics.Histogram_v ({ count; sum; buckets; _ } as h) ->
          line "# TYPE %s histogram" n;
          (* Log2 buckets exposed cumulatively at their upper edges;
             the top bucket folds into the mandatory +Inf edge. *)
          let cum = ref 0 in
          List.iter
            (fun (i, c) ->
              cum := !cum + c;
              if i < 62 then
                line "%s_bucket{le=\"%d\"} %d" n
                  (Metrics.Histogram.bucket_upper i)
                  !cum)
            buckets;
          line "%s_bucket{le=\"+Inf\"} %d" n count;
          line "%s_count %d" n count;
          line "%s_sum %d" n sum;
          (* Nearest-rank quantiles (upper-edge bounds clamped to the
             exact max, same contract as Metrics.quantile) as
             companion gauges. *)
          line "# TYPE %s_p50 gauge" n;
          line "%s_p50 %d" n (Metrics.quantile h 0.5);
          line "# TYPE %s_p99 gauge" n;
          line "%s_p99 %d" n (Metrics.quantile h 0.99))
    snap;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let render () = render_snapshot (Metrics.snapshot ())

(* A permissive structural check used by `elin probe --openmetrics`
   and the smoke gate: every line is a comment, blank, or
   `name[{labels}] value`, and the body ends with `# EOF`. *)
let validate text =
  let ok_sample l =
    match String.index_opt l ' ' with
    | None -> false
    | Some sp ->
        let name_part = String.sub l 0 sp in
        let value_part = String.sub l (sp + 1) (String.length l - sp - 1) in
        let name_ok =
          name_part <> ""
          && String.for_all
               (fun c -> is_name_char c || c = '{' || c = '}' || c = '"'
                         || c = '=' || c = '+' || c = ',')
               name_part
        in
        let value_ok =
          value_part <> "" && (match float_of_string_opt value_part with
                               | Some _ -> true
                               | None -> false)
        in
        name_ok && value_ok
  in
  let lines = String.split_on_char '\n' text in
  let rec go seen_eof i = function
    | [] ->
        if seen_eof then Ok ()
        else Error "openmetrics: missing `# EOF` terminator"
    | l :: rest ->
        if seen_eof && l <> "" then
          Error (Printf.sprintf "openmetrics: line %d after `# EOF`" i)
        else if l = "# EOF" then go true (i + 1) rest
        else if l = "" || (String.length l > 0 && l.[0] = '#') then
          go seen_eof (i + 1) rest
        else if ok_sample l then go seen_eof (i + 1) rest
        else Error (Printf.sprintf "openmetrics: line %d unparsable: %s" i l)
  in
  go false 1 lines
