(** Structured verdicts and their JSONL codec. *)

open Elin_obs

type status =
  | Pass
  | Violation
  | Budget_exhausted
  | Timed_out
  | Cancelled
  | Busy
  | Bad_job of string
  | Failed of string

type t = {
  job_id : string;
  seq : int;
  check : Job.check option;
  status : status;
  min_t : int option;
  nodes : int;
  memo_hits : int;
  wall_ms : float;
}

let status_to_string = function
  | Pass -> "pass"
  | Violation -> "violation"
  | Budget_exhausted -> "budget_exhausted"
  | Timed_out -> "timed_out"
  | Cancelled -> "cancelled"
  | Busy -> "busy"
  | Bad_job _ -> "bad_job"
  | Failed _ -> "failed"

let to_json ?(stats = false) v =
  let open Jsonl in
  Obj
    ([ ("id", Str v.job_id) ]
    @ (match v.check with
      | Some c ->
        ("check", Str (Job.check_to_string c))
        :: (match c with Job.T_lin t -> [ ("t", Int t) ] | _ -> [])
      | None -> [])
    @ [ ("status", Str (status_to_string v.status)) ]
    @ (match v.status with
      | Bad_job e | Failed e -> [ ("error", Str e) ]
      | _ -> [])
    @ (match v.min_t with Some t -> [ ("min_t", Int t) ] | None -> [])
    @ (match v.status with
      | Bad_job _ | Busy -> []
      | _ -> [ ("nodes", Int v.nodes); ("memo_hits", Int v.memo_hits) ])
    @ if stats then [ ("wall_ms", Float v.wall_ms) ] else [])

let to_line ?stats v = Jsonl.to_string (to_json ?stats v)

let status_of_string s ~error =
  let error () = Option.value error ~default:"" in
  match s with
  | "pass" -> Ok Pass
  | "violation" -> Ok Violation
  | "budget_exhausted" -> Ok Budget_exhausted
  | "timed_out" -> Ok Timed_out
  | "cancelled" -> Ok Cancelled
  | "busy" -> Ok Busy
  | "bad_job" -> Ok (Bad_job (error ()))
  | "failed" -> Ok (Failed (error ()))
  | other -> Error (Printf.sprintf "unknown status %S" other)

let of_json ~seq json =
  let ( let* ) = Result.bind in
  let* job_id =
    Option.to_result ~none:"missing field \"id\"" (Jsonl.str_mem "id" json)
  in
  let* status_s =
    Option.to_result ~none:"missing field \"status\""
      (Jsonl.str_mem "status" json)
  in
  let* status =
    status_of_string status_s ~error:(Jsonl.str_mem "error" json)
  in
  let* check =
    match Jsonl.str_mem "check" json with
    | None -> Ok None
    | Some c ->
      let* c = Job.check_of_string c ~t:(Jsonl.int_mem "t" json) in
      Ok (Some c)
  in
  Ok
    {
      job_id;
      seq;
      check;
      status;
      min_t = Jsonl.int_mem "min_t" json;
      nodes = Option.value ~default:0 (Jsonl.int_mem "nodes" json);
      memo_hits = Option.value ~default:0 (Jsonl.int_mem "memo_hits" json);
      wall_ms = Option.value ~default:0. (Jsonl.float_mem "wall_ms" json);
    }

let pp ppf v =
  Format.fprintf ppf "%s: %s%a" v.job_id
    (status_to_string v.status)
    (fun ppf -> function
      | Some t -> Format.fprintf ppf " (min_t=%d)" t
      | None -> ())
    v.min_t
