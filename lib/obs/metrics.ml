(* See metrics.mli for the design contract. The sharding invariant
   everything rests on: a shard cell is written only by the domain
   that created it, so owner updates need no read-modify-write
   atomicity at all — they are plain stores into domain-private
   cells. Scrapers on other domains read those cells racily: the
   OCaml memory model guarantees word-sized mutable fields never
   tear, so a racy read returns *some* recently written value —
   a bounded-staleness snapshot, and the exact total once a
   happens-before edge (Domain.join, mutex hand-off) separates the
   last write from the read. Dropping the atomics from the per-event
   path is what keeps `metrics_enabled` overhead inside the <=5%
   budget (BENCH_obs.json). *)

let master_enabled = Atomic.make false
let set_enabled b = Atomic.set master_enabled b
let enabled () = Atomic.get master_enabled

(* ------------------------------------------------------------------ *)
(* Validation                                                          *)
(* ------------------------------------------------------------------ *)

let valid_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true | _ -> false)
       s

let valid_label_name s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let check_name what s =
  if not (valid_name s) then
    invalid_arg (Printf.sprintf "Metrics: invalid %s name %S" what s)

let check_labels labels =
  List.iter
    (fun (k, _) ->
      if not (valid_label_name k) then
        invalid_arg (Printf.sprintf "Metrics: invalid label name %S" k))
    labels

(* ------------------------------------------------------------------ *)
(* Per-domain shards                                                   *)
(* ------------------------------------------------------------------ *)

(* A domain's shard is found through a DLS slot; all shards are also
   kept on a lock-free shared list so a scraper can fold over every
   domain's contribution. *)
type 'a sharded = { all : 'a list Atomic.t; slot : 'a option ref Domain.DLS.key }

let sharded () =
  { all = Atomic.make []; slot = Domain.DLS.new_key (fun () -> ref None) }

let my_shard s ~fresh =
  let r = Domain.DLS.get s.slot in
  match !r with
  | Some shard -> shard
  | None ->
      let shard = fresh () in
      r := Some shard;
      let rec push () =
        let old = Atomic.get s.all in
        if not (Atomic.compare_and_set s.all old (shard :: old)) then push ()
      in
      push ();
      shard

let fold_shards s f init = List.fold_left f init (Atomic.get s.all)

(* ------------------------------------------------------------------ *)
(* Metric bodies                                                       *)
(* ------------------------------------------------------------------ *)

(* A single-field all-float record is flat (unboxed storage), so the
   owner's [c.v <- c.v +. x] is one load, one add, one plain store —
   no allocation. A [mutable float] inside a mixed record would box
   on every store; never inline these into a larger record. *)
type fcell = { mutable v : float }  (* qnet-lint: racy-ok C001 owner-written telemetry cell; scrape reads tolerate a stale value by design *)

type counter_body = fcell sharded

type hist_shard = {
  bucket_counts : int array; (* one per bound, plus overflow; owner-written *)
  h_sum : fcell;
  mutable h_count : int;  (* qnet-lint: racy-ok C001 owner-written shard counter; scrape merge tolerates bounded staleness *)
  mutable h_nan : int;  (* qnet-lint: racy-ok C001 owner-written shard counter; scrape merge tolerates bounded staleness *)
}

type hist_body = { bounds : float array; shards : hist_shard sharded }

type body =
  | Counter_b of counter_body
  | Gauge_b of float Atomic.t
  | Histogram_b of hist_body

type metric = {
  name : string;
  help : string;
  labels : (string * string) list; (* sorted by label name *)
  body : body;
}

type registry = {
  lock : Mutex.t;
  by_key : (string, metric) Hashtbl.t; (* key = kind ^ name ^ rendered labels *)
  families : (string, string * string) Hashtbl.t; (* name -> (kind, help) *)
  mutable ordered : metric list; (* registration order, newest first *)
}

let create_registry () =
  { lock = Mutex.create (); by_key = Hashtbl.create 64; families = Hashtbl.create 64;
    ordered = [] }

let default = create_registry ()

let kind_of_body = function
  | Counter_b _ -> "counter"
  | Gauge_b _ -> "gauge"
  | Histogram_b _ -> "histogram"

let escape_label_value v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map
             (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label_value v))
             labels)
      ^ "}"

let key ~kind ~name ~labels = kind ^ "\x00" ^ name ^ "\x00" ^ render_labels labels

(* Idempotent registration: same (kind, name, labels) returns the
   existing metric; same name under a different kind is an error
   (Prometheus families are single-kind). *)
let register reg ~kind ~name ~help ~labels make =
  check_name "metric" name;
  check_labels labels;
  let labels = List.sort (fun (a, _) (b, _) -> compare a b) labels in
  let k = key ~kind ~name ~labels in
  Mutex.lock reg.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock reg.lock) (fun () ->
      match Hashtbl.find_opt reg.by_key k with
      | Some m -> m
      | None ->
          (match Hashtbl.find_opt reg.families name with
          | Some (k0, _) when k0 <> kind ->
              invalid_arg
                (Printf.sprintf "Metrics: %S already registered as a %s, not a %s"
                   name k0 kind)
          | Some _ -> ()
          | None -> Hashtbl.add reg.families name (kind, help));
          let m = { name; help; labels; body = make () } in
          Hashtbl.add reg.by_key k m;
          reg.ordered <- m :: reg.ordered;
          m)

(* ------------------------------------------------------------------ *)
(* Counter                                                             *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = counter_body

  let create ?(registry = default) ?(help = "") ?(labels = []) name =
    let m =
      register registry ~kind:"counter" ~name ~help ~labels (fun () ->
          Counter_b (sharded ()))
    in
    match m.body with Counter_b b -> b | _ -> assert false

  let inc ?(by = 1.0) t =
    if by < 0.0 || Float.is_nan by then
      invalid_arg "Metrics.Counter.inc: negative or NaN increment";
    let cell = my_shard t ~fresh:(fun () -> { v = 0.0 }) in
    (* owner-only writer; plain store, see the header comment *)
    cell.v <- cell.v +. by

  let value t = fold_shards t (fun acc cell -> acc +. cell.v) 0.0
end

(* ------------------------------------------------------------------ *)
(* Gauge                                                               *)
(* ------------------------------------------------------------------ *)

module Gauge = struct
  type t = float Atomic.t

  let create ?(registry = default) ?(help = "") ?(labels = []) name =
    let m =
      register registry ~kind:"gauge" ~name ~help ~labels (fun () ->
          Gauge_b (Atomic.make 0.0))
    in
    match m.body with Gauge_b b -> b | _ -> assert false

  let set t v = Atomic.set t v

  let rec add t v =
    let old = Atomic.get t in
    if not (Atomic.compare_and_set t old (old +. v)) then add t v

  let value t = Atomic.get t
end

(* ------------------------------------------------------------------ *)
(* Histogram                                                           *)
(* ------------------------------------------------------------------ *)

module Histogram = struct
  type t = hist_body

  (* Decades from 100µs to 100s, for sweep and checkpoint latencies. *)
  let default_buckets =
    [| 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0; 100.0 |]

  let check_buckets b =
    if Array.length b = 0 then
      invalid_arg "Metrics.Histogram.create: empty bucket list";
    Array.iteri
      (fun i u ->
        if not (Float.is_finite u) then
          invalid_arg "Metrics.Histogram.create: non-finite bucket bound";
        if i > 0 && b.(i - 1) >= u then
          invalid_arg "Metrics.Histogram.create: bucket bounds must be strictly increasing")
      b

  let create ?(registry = default) ?(help = "") ?(labels = [])
      ?(buckets = default_buckets) name =
    check_buckets buckets;
    let bounds = Array.copy buckets in
    let m =
      register registry ~kind:"histogram" ~name ~help ~labels (fun () ->
          Histogram_b { bounds; shards = sharded () })
    in
    match m.body with Histogram_b b -> b | _ -> assert false

  let fresh_shard bounds () =
    {
      bucket_counts = Array.make (Array.length bounds + 1) 0;
      h_sum = { v = 0.0 };
      h_count = 0;
      h_nan = 0;
    }

  let bucket_index bounds v =
    (* first bound >= v; linear scan — bucket lists are short *)
    let n = Array.length bounds in
    let rec go i = if i >= n || v <= bounds.(i) then i else go (i + 1) in
    go 0

  (* Record [n] identical observations of [v] in one pass: one bucket
     scan and three plain stores total, instead of n of each. This is
     the batching half of the telemetry fast path — a stride-sampling
     caller times every k-th event and observes it with weight k, so
     [count] still approximates the event count. *)
  let observe_n t ~n v =
    if n < 0 then invalid_arg "Metrics.Histogram.observe_n: negative count";
    if n > 0 then begin
      let sh = my_shard t.shards ~fresh:(fresh_shard t.bounds) in
      if Float.is_nan v then sh.h_nan <- sh.h_nan + n
      else begin
        let i = bucket_index t.bounds v in
        sh.bucket_counts.(i) <- sh.bucket_counts.(i) + n;
        sh.h_sum.v <- sh.h_sum.v +. (float_of_int n *. v);
        sh.h_count <- sh.h_count + n
      end
    end

  let observe t v =
    let sh = my_shard t.shards ~fresh:(fresh_shard t.bounds) in
    if Float.is_nan v then sh.h_nan <- sh.h_nan + 1
    else begin
      let i = bucket_index t.bounds v in
      sh.bucket_counts.(i) <- sh.bucket_counts.(i) + 1;
      sh.h_sum.v <- sh.h_sum.v +. v;
      sh.h_count <- sh.h_count + 1
    end

  let count t = fold_shards t.shards (fun acc sh -> acc + sh.h_count) 0
  let sum t = fold_shards t.shards (fun acc sh -> acc +. sh.h_sum.v) 0.0
  let nan_count t = fold_shards t.shards (fun acc sh -> acc + sh.h_nan) 0

  let raw_buckets t =
    let n = Array.length t.bounds + 1 in
    let acc = Array.make n 0 in
    fold_shards t.shards
      (fun () sh ->
        Array.iteri (fun i c -> acc.(i) <- acc.(i) + c) sh.bucket_counts)
      ();
    acc

  let cumulative_buckets t =
    let raw = raw_buckets t in
    let n = Array.length t.bounds in
    let out = Array.make (n + 1) (infinity, 0) in
    let running = ref 0 in
    for i = 0 to n - 1 do
      running := !running + raw.(i);
      out.(i) <- (t.bounds.(i), !running)
    done;
    out.(n) <- (infinity, !running + raw.(n));
    out

  let quantile t q =
    if q < 0.0 || q > 1.0 || Float.is_nan q then
      invalid_arg "Metrics.Histogram.quantile: q outside [0,1]";
    let cum = cumulative_buckets t in
    let n = Array.length cum in
    let total = snd cum.(n - 1) in
    if total = 0 then Float.nan
    else begin
      let rank = q *. float_of_int total in
      let rec find i =
        if i >= n - 1 then i
        else if float_of_int (snd cum.(i)) >= rank then i
        else find (i + 1)
      in
      let i = find 0 in
      let ub, c = cum.(i) in
      if Float.equal ub infinity then
        (* overflow bucket: the best honest answer is the largest
           finite bound — "at least this much" *)
        fst cum.(n - 2)
      else begin
        let lo = if i = 0 then 0.0 else fst cum.(i - 1) in
        let clo = if i = 0 then 0 else snd cum.(i - 1) in
        let frac =
          if c = clo then 1.0
          else (rank -. float_of_int clo) /. float_of_int (c - clo)
        in
        lo +. ((ub -. lo) *. Float.max 0.0 (Float.min 1.0 frac))
      end
    end
end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

let float_repr v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else
    (* shortest representation that round-trips: try increasing
       precision so bucket bounds print as 1e-07, not
       9.9999999999999995e-08 *)
    let shortest = Printf.sprintf "%.12g" v in
    if float_of_string shortest = v then shortest else Printf.sprintf "%.17g" v

let sorted_metrics reg =
  Mutex.lock reg.lock;
  let ms = reg.ordered in
  Mutex.unlock reg.lock;
  List.sort
    (fun a b ->
      match compare a.name b.name with
      | 0 -> compare (render_labels a.labels) (render_labels b.labels)
      | c -> c)
    ms

let family_header reg buf name =
  let kind, help =
    (* [register] mutates [families] under the lock, and late
       registration can race a concurrent scrape — so the read takes
       it too *)
    Mutex.protect reg.lock (fun () ->
        match Hashtbl.find_opt reg.families name with
        | Some kh -> kh
        | None -> ("untyped", ""))
  in
  if help <> "" then
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s %s\n" name
         (String.concat "\\n" (String.split_on_char '\n' help)));
  Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name kind)

let to_prometheus reg =
  let buf = Buffer.create 1024 in
  let last_family = ref "" in
  List.iter
    (fun m ->
      if m.name <> !last_family then begin
        family_header reg buf m.name;
        last_family := m.name
      end;
      let ls = render_labels m.labels in
      match m.body with
      | Counter_b b ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" m.name ls (float_repr (Counter.value b)))
      | Gauge_b g ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %s\n" m.name ls (float_repr (Atomic.get g)))
      | Histogram_b h ->
          let with_le le =
            let labels = m.labels @ [ ("le", le) ] in
            render_labels labels
          in
          Array.iter
            (fun (ub, c) ->
              let le = if Float.equal ub infinity then "+Inf" else float_repr ub in
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" m.name (with_le le) c))
            (Histogram.cumulative_buckets h);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" m.name ls (float_repr (Histogram.sum h)));
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" m.name ls (Histogram.count h)))
    (sorted_metrics reg);
  Buffer.contents buf

let json_escape s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float v =
  if Float.is_nan v then "\"nan\""
  else if Float.equal v infinity then "\"inf\""
  else if Float.equal v neg_infinity then "\"-inf\""
  else float_repr v

let labels_json labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
         labels)
  ^ "}"

let to_jsonl ?ts reg =
  let buf = Buffer.create 1024 in
  let ts_field =
    match ts with
    | None -> ""
    | Some t -> Printf.sprintf "\"ts\":%s," (json_float t)
  in
  List.iter
    (fun m ->
      let common =
        Printf.sprintf "%s\"name\":\"%s\",\"type\":\"%s\",\"labels\":%s" ts_field
          (json_escape m.name) (kind_of_body m.body) (labels_json m.labels)
      in
      (match m.body with
      | Counter_b b ->
          Buffer.add_string buf
            (Printf.sprintf "{%s,\"value\":%s}" common (json_float (Counter.value b)))
      | Gauge_b g ->
          Buffer.add_string buf
            (Printf.sprintf "{%s,\"value\":%s}" common (json_float (Atomic.get g)))
      | Histogram_b h ->
          let buckets =
            Histogram.cumulative_buckets h |> Array.to_list
            |> List.map (fun (ub, c) ->
                   Printf.sprintf "[%s,%d]"
                     (if Float.equal ub infinity then "\"inf\"" else json_float ub)
                     c)
            |> String.concat ","
          in
          Buffer.add_string buf
            (Printf.sprintf "{%s,\"sum\":%s,\"count\":%d,\"nan_count\":%d,\"buckets\":[%s]}"
               common
               (json_float (Histogram.sum h))
               (Histogram.count h) (Histogram.nan_count h) buckets));
      Buffer.add_char buf '\n')
    (sorted_metrics reg);
  Buffer.contents buf
