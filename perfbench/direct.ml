(* Rung 1 of the ladder: each job through the library's parse ->
   prepare -> check path directly, on the calling domain, with a span
   around every call.  It mirrors what a pool worker does for one job
   ([Pool] runs the engine checks on a prepared history, [Weak.check]
   and [Report.analyze] on the parsed one) and, for multi-object jobs,
   what [Split] does around it: project per object, map the cut,
   check each projection, compose.  Every verdict is compared with the
   corpus's known answer. *)

open Elin_history
open Elin_checker
open Elin_svc

type tally = {
  mutable jobs : int;
  mutable wrong : int;
  mutable nodes : int;
  mutable memo_hits : int;
  mutable words : float;  (* minor words allocated by prepare + check *)
  mutable min_t_jobs : int;
  mutable probes : int;  (* cuts probed by min-t searches *)
  mutable decomposed : int;  (* multi-object jobs *)
  mutable decompose_nodes : int;
  mutable decompose_ns : float;
}

let tally () =
  {
    jobs = 0;
    wrong = 0;
    nodes = 0;
    memo_hits = 0;
    words = 0.;
    min_t_jobs = 0;
    probes = 0;
    decomposed = 0;
    decompose_nodes = 0;
    decompose_ns = 0.;
  }

let status ok = if ok then Verdict.Pass else Verdict.Violation

(* One single-object check, as a pool worker runs it. *)
let exec spans t ~job:i ~spec ~check text =
  let h = Spans.time spans ~job:i ~parent:"job" "history.parse" (fun () -> Textio.of_string text) in
  let w0 = Gc.minor_words () in
  let engine () =
    Spans.time spans ~job:i ~parent:"job" "checker.prepare" (fun () ->
        Engine.prepare (Engine.for_spec spec) h)
  in
  let checked f = Spans.time spans ~job:i ~parent:"job" "checker.check" f in
  let st, min_t, nodes, memo =
    match check with
    | Job.Linearizable | Job.T_lin _ ->
      let cut = match check with Job.T_lin c -> c | _ -> 0 in
      let p = engine () in
      let v = checked (fun () -> Engine.check_at p ~t:cut) in
      (status v.Engine.ok, None, v.Engine.nodes_explored, v.Engine.memo_hits)
    | Job.Min_t ->
      let p = engine () in
      let mt, s = checked (fun () -> Eventual.min_t_prepared p) in
      t.min_t_jobs <- t.min_t_jobs + 1;
      t.probes <- t.probes + s.Eventual.cuts_probed;
      (status (mt <> None), mt, s.Eventual.nodes, s.Eventual.memo_hits)
    | Job.Weak ->
      let r = checked (fun () -> Weak.check (Weak.for_spec spec) h) in
      (status (Result.is_ok r), None, 0, 0)
    | Job.Full ->
      let r = checked (fun () -> Report.analyze spec h) in
      let nodes, memo =
        match r.Report.search with
        | Some s -> (s.Eventual.nodes, s.Eventual.memo_hits)
        | None -> (0, 0)
      in
      (status (Report.is_eventually_linearizable r), r.Report.min_t, nodes, memo)
  in
  t.words <- t.words +. (Gc.minor_words () -. w0);
  t.nodes <- t.nodes + nodes;
  t.memo_hits <- t.memo_hits + memo;
  (st, min_t)

(* A multi-object job the way [Split] handles it. *)
let exec_split spans t ~job:i ~spec (job : Job.t) =
  let split f = Spans.time spans ~job:i ~parent:"job" "svc.split" f in
  let h, objs, subs =
    split (fun () ->
        let h = Textio.of_string job.Job.history_text in
        let objs = History.objs h in
        let subs =
          List.map
            (fun o ->
              let check =
                match job.Job.check with
                | Job.T_lin c -> Job.T_lin (Decompose.sub_cut (History.index_map_obj h o) ~t:c)
                | c -> c
              in
              (check, Textio.to_string (History.proj_obj h o)))
            objs
        in
        (h, objs, subs))
  in
  let results = List.map (fun (check, text) -> exec spans t ~job:i ~spec ~check text) subs in
  split (fun () ->
      let all_pass = List.for_all (fun (s, _) -> s = Verdict.Pass) results in
      let composed () = Locality.compose_min_t h (List.map2 (fun o (_, m) -> (o, m)) objs results) in
      match job.Job.check with
      | Job.Linearizable | Job.T_lin _ | Job.Weak -> (status all_pass, None)
      | Job.Min_t -> (
        match composed () with Some _ as m -> (Verdict.Pass, m) | None -> (Verdict.Violation, None))
      | Job.Full -> (status all_pass, composed ()))

(* The same multi-object job through [Decompose]'s entry points
   (timed on their own, outside the ladder sum); its verdict must match
   the known answer too. *)
let decompose t ~spec (it : Corpus.item) =
  let job = it.Corpus.job in
  let h = Textio.of_string job.Job.history_text in
  let cfg = Decompose.for_spec spec in
  let t0 = Spans.now () in
  let st, min_t, nodes =
    match job.Job.check with
    | Job.Linearizable | Job.T_lin _ ->
      let cut = match job.Job.check with Job.T_lin c -> c | _ -> 0 in
      let ok, s = Decompose.t_linearizable_stats cfg h ~t:cut in
      (status ok, None, s.Decompose.nodes)
    | Job.Min_t ->
      let mt, _, s = Decompose.min_t_stats cfg h in
      (status (mt <> None), mt, s.Decompose.nodes)
    | Job.Weak -> (status (Result.is_ok (Decompose.weak_check cfg h)), None, 0)
    | Job.Full ->
      let r, s = Decompose.analyze spec h in
      (status (Report.is_eventually_linearizable r), r.Report.min_t, s.Decompose.nodes)
  in
  t.decompose_ns <- t.decompose_ns +. Int64.to_float (Int64.sub (Spans.now ()) t0);
  t.decomposed <- t.decomposed + 1;
  t.decompose_nodes <- t.decompose_nodes + nodes;
  (st, min_t)

let verdict_of (job : Job.t) (st, min_t) =
  {
    Verdict.job_id = job.Job.id;
    seq = job.Job.seq;
    check = Some job.Job.check;
    status = st;
    min_t;
    nodes = 0;
    memo_hits = 0;
    wall_ms = 0.;
  }

(* [run spans ~resolve items] — rung 1 over [items]; job [i]'s spans
   carry id [i].  Returns the tally. *)
let run spans ~resolve items =
  let t = tally () in
  Array.iteri
    (fun i (it : Corpus.item) ->
      let t0 = Spans.now () in
      let codec f = Spans.time spans ~job:i ~parent:"job" "svc.codec" f in
      let job =
        match codec (fun () -> Job.of_line ~seq:i it.Corpus.line) with
        | Ok j -> j
        | Error e -> failwith ("perfbench: corpus line does not parse: " ^ e)
      in
      let spec = resolve job.Job.spec in
      let result =
        if it.Corpus.objs > 1 then exec_split spans t ~job:i ~spec job
        else exec spans t ~job:i ~spec ~check:job.Job.check job.Job.history_text
      in
      let v = verdict_of job result in
      ignore (codec (fun () -> Verdict.to_line v));
      Spans.record spans ~job:i "job" t0 (Spans.now ());
      t.jobs <- t.jobs + 1;
      if not (Corpus.answer_ok it.Corpus.expect v) then t.wrong <- t.wrong + 1;
      if it.Corpus.objs > 1 then begin
        let d = verdict_of job (decompose t ~spec it) in
        if not (Corpus.answer_ok it.Corpus.expect d) then t.wrong <- t.wrong + 1
      end)
    items;
  t
