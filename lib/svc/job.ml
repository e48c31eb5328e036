(** Checking jobs and their JSONL codec. *)

open Elin_obs

type check = Linearizable | T_lin of int | Min_t | Weak | Full

type t = {
  id : string;
  seq : int;
  spec : string;
  check : check;
  node_budget : int option;
  timeout_ms : int option;
  history_text : string;
  trace : string option;
  parent : string option;
}

let check_to_string = function
  | Linearizable -> "linearizable"
  | T_lin _ -> "t-lin"
  | Min_t -> "min-t"
  | Weak -> "weak"
  | Full -> "full"

let check_of_string s ~t =
  match s with
  | "linearizable" -> Ok Linearizable
  | "t-lin" -> (
    match t with
    | Some t when t >= 0 -> Ok (T_lin t)
    | Some t -> Error (Printf.sprintf "\"t\" must be >= 0, got %d" t)
    | None -> Error "check \"t-lin\" requires an integer field \"t\"")
  | "min-t" -> Ok Min_t
  | "weak" -> Ok Weak
  | "full" -> Ok Full
  | other ->
    Error
      (Printf.sprintf
         "unknown check %S (linearizable, t-lin, min-t, weak, full)" other)

let to_json j =
  let open Jsonl in
  Obj
    ([ ("id", Str j.id); ("spec", Str j.spec);
       ("check", Str (check_to_string j.check)) ]
    @ (match j.check with T_lin t -> [ ("t", Int t) ] | _ -> [])
    @ (match j.node_budget with Some b -> [ ("budget", Int b) ] | None -> [])
    @ (match j.timeout_ms with
      | Some ms -> [ ("timeout_ms", Int ms) ]
      | None -> [])
    @ (match j.trace with Some t -> [ ("trace", Str t) ] | None -> [])
    @ (match j.parent with Some p -> [ ("parent", Str p) ] | None -> [])
    @ [ ("history", Str j.history_text) ])

let of_json ~seq json =
  let ( let* ) = Result.bind in
  let required name = function
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing string field %S" name)
  in
  let* id = required "id" (Jsonl.str_mem "id" json) in
  let* spec = required "spec" (Jsonl.str_mem "spec" json) in
  let* check_s = required "check" (Jsonl.str_mem "check" json) in
  let* history_text = required "history" (Jsonl.str_mem "history" json) in
  let* check = check_of_string check_s ~t:(Jsonl.int_mem "t" json) in
  let node_budget = Jsonl.int_mem "budget" json in
  let timeout_ms = Jsonl.int_mem "timeout_ms" json in
  let trace = Jsonl.str_mem "trace" json in
  let parent = Jsonl.str_mem "parent" json in
  Ok
    { id; seq; spec; check; node_budget; timeout_ms; history_text; trace;
      parent }

let of_line ~seq line =
  match Jsonl.of_string line with
  | exception Jsonl.Parse_error m -> Error m
  | json -> of_json ~seq json

let to_line j = Jsonl.to_string (to_json j)
