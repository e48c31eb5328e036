(* Flight recorder: a bounded per-domain ring of recent cold-path
   events, always on.  See recorder.mli for the contract. *)

type entry = {
  ts : int64;
  dom : int;
  kind : string;
  id : string;
  args : (string * Jsonl.t) list;
}

let cap = 256

type ring = {
  mutable rdom : int;
  slots : entry option array;
  mutable next : int;  (* next write position, wraps mod cap *)
  mutable total : int; (* entries ever written to this ring *)
}

let all_rings : ring list ref = ref []
let rings_mu = Mutex.create ()

(* Rings whose domain has exited, for the next domain to need one: a
   process that spawns domains over and over (the service's batch path
   does, on every call) holds one ring per live domain, not one per
   domain it ever ran.  A reused ring keeps its old entries until they
   are overwritten, so a post-mortem still sees them. *)
let free_rings : ring list ref = ref []

let ring_key =
  Domain.DLS.new_key (fun () ->
      Mutex.lock rings_mu;
      let r =
        match !free_rings with
        | r :: rest ->
          free_rings := rest;
          r
        | [] ->
          let r = { rdom = 0; slots = Array.make cap None; next = 0; total = 0 } in
          all_rings := r :: !all_rings;
          r
      in
      Mutex.unlock rings_mu;
      r.rdom <- (Domain.self () :> int);
      Domain.at_exit (fun () ->
          Mutex.lock rings_mu;
          free_rings := r :: !free_rings;
          Mutex.unlock rings_mu);
      r)

let enabled = Atomic.make true
let on () = Atomic.get enabled
let set_enabled b = Atomic.set enabled b

let note ?(id = "") ?(args = []) kind =
  if on () then begin
    let r = Domain.DLS.get ring_key in
    r.slots.(r.next) <-
      Some { ts = Clock.now_ns (); dom = r.rdom; kind; id; args };
    r.next <- (r.next + 1) mod cap;
    r.total <- r.total + 1
  end

(* Snapshot every domain's ring, oldest first.  Reads race with
   concurrent writers on other domains — each slot holds an immutable
   entry, so a racy read sees either the old or the new entry, never a
   torn one.  Good enough for a post-mortem. *)
let entries () =
  Mutex.lock rings_mu;
  let rings =
    Fun.protect ~finally:(fun () -> Mutex.unlock rings_mu) (fun () -> !all_rings)
  in
  rings
  |> List.concat_map (fun r ->
         let out = ref [] in
         for i = 0 to cap - 1 do
           (* Oldest slot is [next] once the ring has wrapped. *)
           match r.slots.((r.next + i) mod cap) with
           | Some e -> out := e :: !out
           | None -> ()
         done;
         List.rev !out)
  |> List.stable_sort (fun a b -> Int64.compare a.ts b.ts)

let clear () =
  Mutex.lock rings_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock rings_mu)
    (fun () ->
      List.iter
        (fun r ->
          Array.fill r.slots 0 cap None;
          r.next <- 0;
          r.total <- 0)
        !all_rings)

let entry_json t0 e =
  let open Jsonl in
  Obj
    ([
       ("ts", Int (Int64.to_int (Int64.sub e.ts t0)));
       ("dom", Int e.dom);
       ("kind", Str e.kind);
     ]
    @ (if e.id = "" then [] else [ ("id", Str e.id) ])
    @ if e.args = [] then [] else [ ("args", Obj e.args) ])

let to_jsonl ~reason ?job () =
  let es = entries () in
  let t0 = match es with [] -> 0L | e :: _ -> e.ts in
  let open Jsonl in
  let header =
    Obj
      ([ ("flight", Str "elin.flight"); ("reason", Str reason) ]
      @ (match job with Some j -> [ ("job", Str j) ] | None -> [])
      @ [
          ("t0", Int (Int64.to_int t0));
          ("events", Int (List.length es));
        ])
  in
  header :: List.map (entry_json t0) es

(* Dump sink: a path configured once at CLI startup (--flight FILE).
   Dumps append, so successive incidents in one process all survive.
   The mutex serializes concurrent dumps from worker domains. *)
let sink : string option ref = ref None
let dump_mu = Mutex.create ()
let dumps = Atomic.make 0

let set_sink p = sink := p
let dump_count () = Atomic.get dumps

let dump ~reason ?job () =
  match !sink with
  | None -> ()
  | Some path ->
      let lines = to_jsonl ~reason ?job () in
      Mutex.lock dump_mu;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock dump_mu)
        (fun () ->
          let oc =
            open_out_gen [ Open_wronly; Open_append; Open_creat ] 0o644 path
          in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> List.iter (Jsonl.write_line oc) lines);
          Atomic.incr dumps)

let install_sigusr1 () =
  ignore
    (Sys.signal Sys.sigusr1
       (Sys.Signal_handle (fun _ -> dump ~reason:"sigusr1" ())))
