(** Directory spool: [*.jobs] in, [*.verdicts] out. *)

let jobs_ext = ".jobs"
let verdicts_ext = ".verdicts"

let strip_suffix s suf =
  let ls = String.length s and lf = String.length suf in
  if ls >= lf && String.sub s (ls - lf) lf = suf then
    Some (String.sub s 0 (ls - lf))
  else None

let pending ~dir =
  let entries = try Sys.readdir dir with Sys_error _ -> [||] in
  let names =
    Array.to_list entries
    |> List.filter_map (fun f -> strip_suffix f jobs_ext)
    |> List.filter (fun base ->
           not (Sys.file_exists (Filename.concat dir (base ^ verdicts_ext))))
  in
  List.sort compare names

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

(* Write-then-rename so readers never see a partial verdict file. *)
let write_atomic path body =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc body);
  Sys.rename tmp path

let process_file ?default_budget ?default_timeout_ms ?resolve ?(stats = false)
    ~domains ~dir name =
  let lines = read_lines (Filename.concat dir (name ^ jobs_ext)) in
  let verdicts =
    Pool.run_lines ?default_budget ?default_timeout_ms ?resolve ~domains lines
  in
  let body =
    String.concat "" (List.map (fun v -> Verdict.to_line ~stats v ^ "\n") verdicts)
  in
  write_atomic (Filename.concat dir (name ^ verdicts_ext)) body;
  if stats then
    Printf.eprintf "%s\n%!"
      Elin_obs.Jsonl.(
        to_string
          (Obj
             [ ("file", Str (name ^ jobs_ext)); ("metrics", Pool.metrics_json ()) ]));
  verdicts

let scan_once ?default_budget ?default_timeout_ms ?resolve ?stats ~domains ~dir
    () =
  List.fold_left
    (fun n name ->
      ignore
        (process_file ?default_budget ?default_timeout_ms ?resolve ?stats
           ~domains ~dir name);
      n + 1)
    0 (pending ~dir)

let watch ?default_budget ?default_timeout_ms ?resolve ?stats
    ?(poll_ms = 200) ?(stop = fun () -> false) ~domains ~dir () =
  let rec loop () =
    if stop () then ()
    else begin
      let n =
        scan_once ?default_budget ?default_timeout_ms ?resolve ?stats ~domains
          ~dir ()
      in
      if n = 0 then Unix.sleepf (float_of_int poll_ms /. 1000.);
      loop ()
    end
  in
  loop ()
