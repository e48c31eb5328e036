let enabled = Atomic.make false
let on () = Atomic.get enabled
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false

(* Shard count: power of two, comfortably above the domain counts we
   run (recommended_domain_count on big hosts).  Distinct domains can
   still collide on a shard (id land 63) — that only costs contention,
   never correctness, because every shard is merged on snapshot. *)
let n_shards = 64

let shard () = (Domain.self () :> int) land (n_shards - 1)

module Counter = struct
  type t = { shards : int Atomic.t array }

  let create () = { shards = Array.init n_shards (fun _ -> Atomic.make 0) }
  let incr c = Atomic.incr c.shards.(shard ())
  let add c n = ignore (Atomic.fetch_and_add c.shards.(shard ()) n)
  let value c = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 c.shards
  let shard_value c = Atomic.get c.shards.(shard ())
  let reset c = Array.iter (fun a -> Atomic.set a 0) c.shards
end

module Gauge = struct
  type t = { cell : int Atomic.t }

  let create () = { cell = Atomic.make 0 }
  let set g v = Atomic.set g.cell v
  let add g n = ignore (Atomic.fetch_and_add g.cell n)
  let value g = Atomic.get g.cell
  let reset g = Atomic.set g.cell 0
end

type histogram = {
  count : int;
  sum : int;
  max : int;
  buckets : (int * int) list;
}

module Histogram = struct
  let n_buckets = 64

  type t = {
    (* cells.(shard * n_buckets + bucket); sums.(shard); maxes.(shard) *)
    cells : int Atomic.t array;
    sums : int Atomic.t array;
    maxes : int Atomic.t array;
  }

  let create () =
    {
      cells = Array.init (n_shards * n_buckets) (fun _ -> Atomic.make 0);
      sums = Array.init n_shards (fun _ -> Atomic.make 0);
      maxes = Array.init n_shards (fun _ -> Atomic.make 0);
    }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 and v = ref v in
      while !v > 0 do
        incr b;
        v := !v lsr 1
      done;
      min (n_buckets - 1) !b
    end

  let bucket_lower i = if i <= 0 then 0 else 1 lsl (i - 1)

  let bucket_upper i =
    if i <= 0 then 0
    else if i >= n_buckets - 1 then max_int
    else (1 lsl i) - 1

  (* Shards can collide (distinct domains, same id land 63), so the
     max cell is raised by compare-and-swap; the common case is one
     load and a failed comparison. *)
  let rec raise_max cell v =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then raise_max cell v

  (* The max is raised first, so a concurrent [merged] never counts an
     observation that exceeds the max it reports. *)
  let observe h v =
    let s = shard () in
    raise_max h.maxes.(s) v;
    Atomic.incr h.cells.((s * n_buckets) + bucket_of v);
    ignore (Atomic.fetch_and_add h.sums.(s) v)

  (* Nonzero (bucket, count) pairs, ascending; plus count/sum/max. *)
  let merged h =
    let count = ref 0 and sum = ref 0 and max = ref 0 in
    let buckets = ref [] in
    for b = n_buckets - 1 downto 0 do
      let c = ref 0 in
      for s = 0 to n_shards - 1 do
        c := !c + Atomic.get h.cells.((s * n_buckets) + b)
      done;
      if !c > 0 then begin
        count := !count + !c;
        buckets := (b, !c) :: !buckets
      end
    done;
    for s = 0 to n_shards - 1 do
      sum := !sum + Atomic.get h.sums.(s);
      max := Int.max !max (Atomic.get h.maxes.(s))
    done;
    { count = !count; sum = !sum; max = !max; buckets = !buckets }

  let reset h =
    Array.iter (fun a -> Atomic.set a 0) h.cells;
    Array.iter (fun a -> Atomic.set a 0) h.sums;
    Array.iter (fun a -> Atomic.set a 0) h.maxes
end

type metric =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_mu = Mutex.create ()

let register name make classify kind_name =
  Mutex.lock registry_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mu)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> (
        match classify m with
        | Some x -> x
        | None ->
          invalid_arg
            (Printf.sprintf "Obs.Metrics: %S already registered, not a %s" name
               kind_name))
      | None ->
        let x = make () in
        x)

let counter name =
  register name
    (fun () ->
      let c = Counter.create () in
      Hashtbl.add registry name (C c);
      c)
    (function C c -> Some c | _ -> None)
    "counter"

let gauge name =
  register name
    (fun () ->
      let g = Gauge.create () in
      Hashtbl.add registry name (G g);
      g)
    (function G g -> Some g | _ -> None)
    "gauge"

let histogram name =
  register name
    (fun () ->
      let h = Histogram.create () in
      Hashtbl.add registry name (H h);
      h)
    (function H h -> Some h | _ -> None)
    "histogram"

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of histogram

let read = function
  | C c -> Counter_v (Counter.value c)
  | G g -> Gauge_v (Gauge.value g)
  | H h -> Histogram_v (Histogram.merged h)

let snapshot () =
  Mutex.lock registry_mu;
  let named =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry_mu)
      (fun () -> Hashtbl.fold (fun name m acc -> (name, m) :: acc) registry [])
  in
  named
  |> List.map (fun (name, m) -> (name, read m))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find name =
  Mutex.lock registry_mu;
  let m =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry_mu)
      (fun () -> Hashtbl.find_opt registry name)
  in
  Option.map read m

let quantile { count; max; buckets; _ } q =
  if count <= 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int count)) in
      if r < 1 then 1 else if r > count then count else r
    in
    let rec go cum = function
      | [] -> 0
      | (b, c) :: rest ->
        let cum = cum + c in
        if cum >= rank then Int.min (Histogram.bucket_upper b) max
        else go cum rest
    in
    go 0 buckets
  end

let to_jsonl () =
  snapshot ()
  |> List.map (fun (name, v) ->
         let open Jsonl in
         match v with
         | Counter_v n ->
           Obj [ ("metric", Str name); ("type", Str "counter"); ("value", Int n) ]
         | Gauge_v n ->
           Obj [ ("metric", Str name); ("type", Str "gauge"); ("value", Int n) ]
         | Histogram_v ({ count; sum; buckets; _ } as h) ->
           Obj
             [
               ("metric", Str name);
               ("type", Str "histogram");
               ("count", Int count);
               ("sum", Int sum);
               ("p50", Int (quantile h 0.5));
               ("p99", Int (quantile h 0.99));
               ( "buckets",
                 Arr (List.map (fun (b, c) -> Arr [ Int b; Int c ]) buckets) );
             ])

let write_jsonl oc = List.iter (Jsonl.write_line oc) (to_jsonl ())

let reset () =
  Mutex.lock registry_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_mu)
    (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | C c -> Counter.reset c
          | G g -> Gauge.reset g
          | H h -> Histogram.reset h)
        registry)
