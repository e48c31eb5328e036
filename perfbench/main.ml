(* The benchmark executable, run by perfbench/run.py:

     main.exe --workload NAME --seed N --seconds S --trace 0|1 --elin PATH

   With --trace 0 it reports the end-to-end metrics, with --trace 1 the
   per-layer ones.  The last line of standard output is the JSON
   result; the exit code is 0 only when every answer was right.
   [--workload mc-board-child] is the one-check process mc-board
   starts for each of its checks. *)

open Elin_perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-closed|batch-heavy|mc-board --seed N --seconds S --trace 0|1 --elin PATH";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 0. in
  let trace = ref 0 and elin = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--elin", Arg.Set_string elin, "PATH to the elin executable");
    ]
    (fun _ -> usage ())
    "perfbench";
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then usage ();
  (* A verdict that arrives after the receiver gave up must not kill
     the run through SIGPIPE. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let traced = !trace = 1 in
  let seconds = !seconds and seed = !seed in
  let result =
    match !workload with
    | "serve-closed" ->
      if !elin = "" then usage ();
      let sock = Printf.sprintf "_perfbench/serve-%d.sock" (Unix.getpid ()) in
      if traced then Serve_closed.traced ~elin:!elin ~sock ~seed ~seconds
      else Serve_closed.e2e ~elin:!elin ~sock ~seed ~seconds
    | "batch-heavy" ->
      if traced then Batch_heavy.traced ~seed ~seconds else Batch_heavy.e2e ~seed ~seconds
    | "mc-board" ->
      if traced then Mc_board.traced () else Mc_board.e2e ~exe:Sys.executable_name ~seconds
    | "mc-board-child" ->
      Mc_board.child ();
      exit 0
    | _ -> usage ()
  in
  Out.print result;
  exit (if result.Out.correct then 0 else 1)
