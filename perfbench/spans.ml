(* Spans recorded by the benchmark's own code around calls into each
   layer's public functions.  Spans stay in memory and are written out
   when the run ends; a span's self time is its duration minus the part
   its children cover. *)

type span = {
  job : int;  (* the request the span belongs to *)
  name : string;
  parent : string option;
  t0 : int64;
  t1 : int64;
}

type t = { mutable spans : span list }

let create () = { spans = [] }
let now = Elin_obs.Clock.now_ns

let record t ~job ?parent name t0 t1 =
  t.spans <- { job; name; parent; t0; t1 } :: t.spans

let time t ~job ?parent name f =
  let t0 = now () in
  let r = f () in
  record t ~job ?parent name t0 (now ());
  r

let dur_ns s = Int64.to_float (Int64.sub s.t1 s.t0)

(* Sum of self times, in ns, of every span called [name]. *)
let self_ns t name =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      match s.parent with
      | Some p ->
        let k = (s.job, p) in
        Hashtbl.replace children k
          (dur_ns s +. Option.value ~default:0. (Hashtbl.find_opt children k))
      | None -> ())
    t.spans;
  List.fold_left
    (fun acc s ->
      if s.name = name then
        acc +. dur_ns s
        -. Option.value ~default:0. (Hashtbl.find_opt children (s.job, name))
      else acc)
    0. t.spans

let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc "{\"job\":%d,\"name\":%S,\"parent\":%s,\"t0\":%Ld,\"t1\":%Ld}\n"
        s.job s.name
        (match s.parent with Some p -> Printf.sprintf "%S" p | None -> "null")
        s.t0 s.t1)
    (List.rev t.spans)
