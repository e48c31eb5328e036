(** Regenerates the committed svc-smoke corpus
    ([test/support/corpus_50.jobs]).  Every job is a pure function of
    its seed, so the file is reproducible byte for byte:

    {v dune exec test/support/gen_corpus.exe > test/support/corpus_50.jobs v}

    The matching golden file is the pool's output over it:

    {v dune exec -- elin batch --domains 2 test/support/corpus_50.jobs \
         > test/support/corpus_50.verdicts.golden v}

    Mix: 45 jobs from 9 histories x 5 checker kinds (linearizable,
    eventually-linearizable, and corrupted shapes over the fai /
    register / queue zoo specs), 3 weak checks over pending-operation
    histories, and 2 node-budget=2 jobs whose searches must report
    budget_exhausted — so the committed batch exercises pass,
    violation, and budget verdicts, and `elin batch` exits 3 on it
    (Exhausted outranks Violation). *)

open Elin_spec
open Elin_history
open Elin_svc

let emit seq job = print_endline (Job.to_line { job with Job.seq })

let job ?budget ~id ~spec check text =
  {
    Job.id;
    seq = 0;
    spec;
    check;
    node_budget = budget;
    timeout_ms = None;
    history_text = text;
    trace = None;
    parent = None;
  }

let all_checks = [ Job.Linearizable; Job.T_lin 2; Job.Min_t; Job.Weak; Job.Full ]

(* [--telemetry-slow] emits the one-job corpus behind `make
   telemetry-smoke` ([test/support/telemetry_slow.jobs]): a depth-16
   unsatisfiable register history (16 pending writes racing a reader;
   even with the memo, refutation visits ~2^16 * 17 nodes, several
   seconds) against the load harness's ["elin.load.reg"] spec, bounded
   by a 3 s timeout.  Submitted to a draining server it pins a worker
   for seconds, which is exactly the window the smoke test needs to
   observe /healthz flip to 503. *)
let telemetry_slow () =
  let d = 16 in
  let events =
    List.init d (fun i -> Event.invoke ~proc:(i + 1) ~obj:0 (Op.write (i + 1)))
    @ List.concat_map
        (fun i ->
          [
            Event.invoke ~proc:0 ~obj:0 Op.read;
            Event.respond ~proc:0 ~obj:0 (Value.int (i + 1));
          ])
        (List.init d (fun i -> i))
    @ [
        Event.invoke ~proc:0 ~obj:0 Op.read;
        Event.respond ~proc:0 ~obj:0 (Value.int 1);
      ]
  in
  let text = Textio.to_string (History.of_events events) in
  emit 0
    { (job ~id:"slow-drain" ~spec:"elin.load.reg" Job.Linearizable text) with
      Job.timeout_ms = Some 3000;
    }

let () =
  if Array.exists (fun a -> a = "--telemetry-slow") Sys.argv then begin
    telemetry_slow ();
    exit 0
  end;
  let next = ref 0 in
  let out j =
    emit !next j;
    incr next
  in
  let spec_of = function
    | "fetch&increment" -> Faicounter.spec ()
    | "register" -> Register.spec ()
    | "queue" -> Fifo.spec ()
    | s -> invalid_arg s
  in
  let linear name seed =
    let rng = Elin_kernel.Prng.create seed in
    Textio.to_string
      (Gen.linearizable rng ~spec:(spec_of name) ~procs:2 ~n_ops:10 ())
  in
  let eventual name seed =
    let rng = Elin_kernel.Prng.create seed in
    Textio.to_string
      (fst
         (Gen.eventually_linearizable rng ~spec:(spec_of name) ~procs:2
            ~prefix_ops:3 ~suffix_ops:7 ()))
  in
  let corrupt name seed =
    let rng = Elin_kernel.Prng.create seed in
    let h = Gen.linearizable rng ~spec:(spec_of name) ~procs:2 ~n_ops:10 () in
    Textio.to_string
      (match Gen.corrupt rng h with Some h' -> h' | None -> h)
  in
  let pending name seed =
    let rng = Elin_kernel.Prng.create seed in
    Textio.to_string
      (Gen.linearizable_with_pending rng ~spec:(spec_of name) ~procs:3
         ~n_ops:9 ())
  in
  (* 9 histories x 5 checks = 45 *)
  let histories =
    [
      ("fai-lin-a", "fetch&increment", linear "fetch&increment" 1);
      ("fai-lin-b", "fetch&increment", linear "fetch&increment" 2);
      ("fai-lin-c", "fetch&increment", linear "fetch&increment" 3);
      ("fai-ev-a", "fetch&increment", eventual "fetch&increment" 4);
      ("fai-ev-b", "fetch&increment", eventual "fetch&increment" 5);
      ("reg-lin-a", "register", linear "register" 6);
      ("reg-lin-b", "register", linear "register" 7);
      ("queue-lin-a", "queue", linear "queue" 8);
      ("fai-corrupt-a", "fetch&increment", corrupt "fetch&increment" 9);
    ]
  in
  List.iter
    (fun (hname, spec, text) ->
      List.iter
        (fun check ->
          out
            (job
               ~id:(Printf.sprintf "%s/%s" hname (Job.check_to_string check))
               ~spec check text))
        all_checks)
    histories;
  (* 3 weak checks over pending-operation histories *)
  List.iter
    (fun seed ->
      out
        (job
           ~id:(Printf.sprintf "fai-pending-%d/weak" seed)
           ~spec:"fetch&increment" Job.Weak
           (pending "fetch&increment" seed)))
    [ 10; 11; 12 ];
  (* 2 jobs whose budget (2 nodes) cannot cover the search *)
  List.iter
    (fun check ->
      out
        (job ~budget:2
           ~id:
             (Printf.sprintf "fai-tight-budget/%s" (Job.check_to_string check))
           ~spec:"fetch&increment" check
           (linear "fetch&increment" 13)))
    [ Job.Linearizable; Job.Min_t ];
  assert (!next = 50)
