(* One open phase. [id] is its span's id, 0 when tracing was off as it
   opened. Its nested phases add their totals to the child sums, so
   its profile row holds only its self cost. Only the domain whose
   stack holds the frame touches it. *)
type frame = {
  id : int;
  name : string;
  mutable child_seconds : float;  (* qnet-lint: racy-ok C001 Domain.DLS frame: only the domain whose stack holds it updates it *)
  mutable child_words : float;  (* qnet-lint: racy-ok C001 Domain.DLS frame (see child_seconds) *)
}

type span = {
  id : int;
  parent : int option;
  name : string;
  start : float;
  duration : float;
  attrs : (string * string) list;
}

type tracer = {
  ring : span option array;
  mutable write : int; (* next slot *)
  mutable stored : int; (* valid entries, <= capacity *)
  mutable dropped : int;
  drops_by_domain : (int, int) Hashtbl.t; (* domain id -> overwrites *)
  lock : Mutex.t;
  dropped_total : Metrics.Counter.t;
}

let state : tracer option Atomic.t = Atomic.make None
let next_id = Atomic.make 0

(* The open phases of the calling domain, innermost first; a fresh
   domain starts with an empty stack, so its first phase is a root. *)
let stack_key : frame list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let bytes_per_word = float_of_int (Sys.word_size / 8)

let enable ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Span.enable: capacity must be >= 1";
  Atomic.set state
    (Some
       {
         ring = Array.make capacity None;
         write = 0;
         stored = 0;
         dropped = 0;
         drops_by_domain = Hashtbl.create 8;
         lock = Mutex.create ();
         (* Created here, before any domain can record. The help string
            is kept in sync with Serve_metrics.families so whichever
            side registers first wins with the same text. *)
         dropped_total =
           Metrics.Counter.create
             ~help:"Spans overwritten in the ring buffer before being drained"
             "qnet_trace_dropped_total";
       })

let disable () = Atomic.set state None

let enabled () = Atomic.get state <> None

let record tr s =
  Mutex.lock tr.lock;
  tr.ring.(tr.write) <- Some s;
  tr.write <- (tr.write + 1) mod Array.length tr.ring;
  let overwrote = tr.stored = Array.length tr.ring in
  if overwrote then begin
    tr.dropped <- tr.dropped + 1;
    let d = (Domain.self () :> int) in
    Hashtbl.replace tr.drops_by_domain d
      (1 + (try Hashtbl.find tr.drops_by_domain d with Not_found -> 0))
  end
  else tr.stored <- tr.stored + 1;
  Mutex.unlock tr.lock;
  (* metrics counter bumped outside the ring lock; its shard belongs
     to this domain, so no extra synchronization is needed *)
  if overwrote then Metrics.Counter.inc tr.dropped_total

(* Each end reads the clock, the stack and, when profiling, the
   allocation counter once. The phase's parent, in the span tree and
   in the profile, is whatever enclosed it as it opened. *)
let with_span ?(attrs = []) name f =
  let tracer = Atomic.get state and profiling = Prof.running () in
  match tracer with
  | None when not profiling -> f ()
  | _ ->
      let allocated () = if profiling then Prof.allocated_words () else 0.0 in
      let stack = Domain.DLS.get stack_key in
      let enclosing = !stack in
      let id = if Option.is_some tracer then 1 + Atomic.fetch_and_add next_id 1 else 0 in
      let frame = { id; name; child_seconds = 0.0; child_words = 0.0 } in
      stack := frame :: enclosing;
      let t0 = Clock.elapsed () and a0 = allocated () in
      Fun.protect f ~finally:(fun () ->
          let seconds = Float.max 0.0 (Clock.elapsed () -. t0) in
          let words = Float.max 0.0 (allocated () -. a0) in
          (match !stack with
          | top :: rest when top == frame -> stack := rest
          | other -> stack := List.filter (fun fr -> fr != frame) other);
          (match enclosing with
          | parent :: _ ->
              parent.child_seconds <- parent.child_seconds +. seconds;
              parent.child_words <- parent.child_words +. words
          | [] -> ());
          Option.iter
            (fun tr ->
              let parent = match enclosing with p :: _ when p.id > 0 -> Some p.id | _ -> None in
              record tr { id; parent; name; start = t0; duration = seconds; attrs })
            tracer;
          if profiling then
            Prof.record_site
              ~stack:(List.rev_map (fun (fr : frame) -> fr.name) (frame :: enclosing))
              ~bytes:(Float.max 0.0 (words -. frame.child_words) *. bytes_per_word)
              ~self_seconds:(Float.max 0.0 (seconds -. frame.child_seconds)))

let drain () =
  match Atomic.get state with
  | None -> []
  | Some tr ->
      Mutex.lock tr.lock;
      let cap = Array.length tr.ring in
      let first = (tr.write - tr.stored + cap) mod cap in
      let out = ref [] in
      for k = tr.stored - 1 downto 0 do
        match tr.ring.((first + k) mod cap) with
        | Some s -> out := s :: !out
        | None -> ()
      done;
      Array.fill tr.ring 0 cap None;
      tr.stored <- 0;
      tr.write <- 0;
      Mutex.unlock tr.lock;
      !out

let dropped () =
  match Atomic.get state with
  | None -> 0
  | Some tr -> Mutex.protect tr.lock (fun () -> tr.dropped)

let dropped_by_domain () =
  match Atomic.get state with
  | None -> []
  | Some tr ->
      Mutex.lock tr.lock;
      let out = Hashtbl.fold (fun d n acc -> (d, n) :: acc) tr.drops_by_domain [] in
      Mutex.unlock tr.lock;
      List.sort compare out

(* Record a phase measured externally (cross-thread hand-offs like
   queue-wait, where no single [with_span] scope exists). Always a
   root span; [start] is on the [Clock.elapsed] scale. *)
let emit ?(attrs = []) ~start ~duration name =
  match Atomic.get state with
  | None -> ()
  | Some tr ->
      let id = 1 + Atomic.fetch_and_add next_id 1 in
      record tr
        { id; parent = None; name; start; duration = Float.max 0.0 duration; attrs }

(* ------------------------------------------------------------------ *)
(* JSONL codec                                                         *)
(* ------------------------------------------------------------------ *)

let to_json s =
  let attrs =
    String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "\"%s\":\"%s\"" (Jsonx.escape k) (Jsonx.escape v))
         s.attrs)
  in
  Printf.sprintf
    "{\"id\":%d,\"parent\":%s,\"name\":\"%s\",\"start\":%.9f,\"dur\":%.9f,\"attrs\":{%s}}"
    s.id
    (match s.parent with None -> "null" | Some p -> string_of_int p)
    (Jsonx.escape s.name) s.start s.duration attrs

let of_json line =
  match Jsonx.parse_object line with
  | Error m -> Error m
  | Ok fields -> (
      let find k = List.assoc_opt k fields in
      let num k =
        match find k with
        | Some (Jsonx.Num v) -> Ok v
        | _ -> Error (Printf.sprintf "missing or non-numeric field %S" k)
      in
      let str k =
        match find k with
        | Some (Jsonx.Str v) -> Ok v
        | _ -> Error (Printf.sprintf "missing or non-string field %S" k)
      in
      match (num "id", str "name", num "start", num "dur") with
      | Ok id, Ok name, Ok start, Ok dur ->
          let parent =
            match find "parent" with
            | Some (Jsonx.Num p) -> Some (int_of_float p)
            | _ -> None
          in
          let attrs =
            match find "attrs" with
            | Some (Jsonx.Obj kvs) ->
                List.filter_map
                  (fun (k, v) ->
                    match v with Jsonx.Str s -> Some (k, s) | _ -> None)
                  kvs
            | _ -> []
          in
          if Float.is_nan start || Float.is_nan dur || dur < 0.0 then
            Error "non-finite or negative span times"
          else
            Ok { id = int_of_float id; parent; name; start; duration = dur; attrs }
      | Error m, _, _, _ | _, Error m, _, _ | _, _, Error m, _ | _, _, _, Error m ->
          Error m)

let write_jsonl ?dropped oc spans =
  List.iter
    (fun s ->
      output_string oc (to_json s);
      output_char oc '\n')
    spans;
  match dropped with
  | None -> ()
  | Some n -> Printf.fprintf oc "{\"meta\":\"qnet_trace\",\"dropped\":%d}\n" n

type read_result = { spans : span list; malformed : int; dropped : int }

(* The writer's trailer line; recognized by prefix so a trace file can
   be concatenated from several runs (dropped counts accumulate). *)
let parse_meta line =
  if String.length line >= 8 && String.sub line 0 8 = "{\"meta\":" then
    match Jsonx.parse_object line with
    | Ok fields -> (
        match (List.assoc_opt "meta" fields, List.assoc_opt "dropped" fields) with
        | Some (Jsonx.Str "qnet_trace"), Some (Jsonx.Num n) ->
            Some (int_of_float n)
        | _ -> None)
    | Error _ -> None
  else None

let read_jsonl path =
  match
    try
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> ());
      close_in ic;
      Ok (List.rev !lines)
    with Sys_error m -> Error m
  with
  | Error m -> Error m
  | Ok lines ->
      let spans, bad, dropped =
        List.fold_left
          (fun (spans, bad, dropped) line ->
            if String.trim line = "" then (spans, bad, dropped)
            else
              match parse_meta line with
              | Some n -> (spans, bad, dropped + n)
              | None -> (
                  match of_json line with
                  | Ok s -> (s :: spans, bad, dropped)
                  | Error _ -> (spans, bad + 1, dropped)))
          ([], 0, 0) lines
      in
      Ok { spans = List.rev spans; malformed = bad; dropped }

(* ------------------------------------------------------------------ *)
(* Folded stacks (flamegraph input)                                    *)
(* ------------------------------------------------------------------ *)

(* Each span's self time: its duration minus the time spent in its
   direct children. *)
let self_time spans =
  let child_time = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Option.iter
        (fun p ->
          Hashtbl.replace child_time p
            (s.duration +. Option.value (Hashtbl.find_opt child_time p) ~default:0.0))
        s.parent)
    spans;
  fun s ->
    Float.max 0.0 (s.duration -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0)

let to_folded spans =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) spans;
  (* self time is what a flamegraph attributes to the leaf frame *)
  let self = self_time spans in
  (* ancestry path, root first; a missing parent (overwritten in the
     ring before being drained) truncates the stack there rather than
     dropping the span, and a depth cap guards against parent cycles
     in corrupted logs *)
  let rec path depth s =
    let frame = Prof.folded_frame s.name in
    if depth > 64 then [ frame ]
    else
      match s.parent with
      | None -> [ frame ]
      | Some p -> (
          match Hashtbl.find_opt by_id p with
          | None -> [ frame ]
          | Some ps -> path (depth + 1) ps @ [ frame ])
  in
  let acc = Hashtbl.create 256 in
  List.iter
    (fun s ->
      let us = int_of_float (Float.round (1e6 *. self s)) in
      if us > 0 then begin
        let stack = String.concat ";" (path 0 s) in
        Hashtbl.replace acc stack
          (us + (try Hashtbl.find acc stack with Not_found -> 0))
      end)
    spans;
  Hashtbl.fold (fun stack us out -> (stack, us) :: out) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let write_folded oc spans =
  List.iter
    (fun (stack, us) -> Printf.fprintf oc "%s %d\n" stack us)
    (to_folded spans)

(* ------------------------------------------------------------------ *)
(* Summarization                                                       *)
(* ------------------------------------------------------------------ *)

module Summary = struct
  type phase = {
    name : string;
    count : int;
    total : float;
    self : float;
    max_duration : float;
  }

  type t = { wall : float; spans : int; phases : phase list; coverage : float }

  let of_spans spans =
    match spans with
    | [] -> { wall = 0.0; spans = 0; phases = []; coverage = 0.0 }
    | _ ->
        let t_min =
          List.fold_left (fun acc s -> Float.min acc s.start) infinity spans
        in
        let t_max =
          List.fold_left
            (fun acc s -> Float.max acc (s.start +. s.duration))
            neg_infinity spans
        in
        let wall = Float.max 0.0 (t_max -. t_min) in
        let self_of = self_time spans in
        let by_name = Hashtbl.create 64 in
        let root_total = ref 0.0 in
        List.iter
          (fun s ->
            if s.parent = None then root_total := !root_total +. s.duration;
            let self = self_of s in
            let count, total, self0, mx =
              try Hashtbl.find by_name s.name with Not_found -> (0, 0.0, 0.0, 0.0)
            in
            Hashtbl.replace by_name s.name
              ( count + 1,
                total +. s.duration,
                self0 +. self,
                Float.max mx s.duration ))
          spans;
        let phases =
          Hashtbl.fold
            (fun name (count, total, self, max_duration) acc ->
              { name; count; total; self; max_duration } :: acc)
            by_name []
          |> List.sort (fun a b -> compare b.self a.self)
        in
        {
          wall;
          spans = List.length spans;
          phases;
          coverage = (if wall > 0.0 then Float.min 1.0 (!root_total /. wall) else 1.0);
        }

  let pp ppf t =
    Format.fprintf ppf "wall %.3fs over %d spans; root coverage %.1f%%@\n" t.wall
      t.spans (100.0 *. t.coverage);
    Format.fprintf ppf "%-28s %8s %12s %12s %12s %7s@\n" "phase" "count" "total-s"
      "self-s" "max-s" "%wall";
    List.iter
      (fun p ->
        Format.fprintf ppf "%-28s %8d %12.4f %12.4f %12.4f %6.1f%%@\n" p.name
          p.count p.total p.self p.max_duration
          (if t.wall > 0.0 then 100.0 *. p.self /. t.wall else 0.0))
      t.phases
end
