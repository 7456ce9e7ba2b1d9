(* Per-layer accounting for the traced run.

   [time name f] wraps one call into a layer's public function: it
   records a [Qnet_obs.Span] span (kept in the in-memory ring until the
   benchmark drains it) and, at the same boundary, the wall time and
   the bytes this domain allocated, summed per name. With tracing off
   it is [f ()], so the untraced runs execute the same code. *)

module Span = Qnet_obs.Span

type acc = {
  mutable seconds : float;
  mutable bytes : float;
  mutable samples : float list;  (** one duration per call, newest first *)
}

let table : (string, acc) Hashtbl.t = Hashtbl.create 32
let on = ref false

let start () =
  Hashtbl.reset table;
  Span.enable ~capacity:(1 lsl 17) ();
  on := true

let stop () =
  on := false;
  Span.disable ()

let time name f =
  if not !on then f ()
  else begin
    let b0 = Util.allocated_bytes () in
    let t0 = Util.now () in
    let r = Span.with_span name f in
    let dt = Util.now () -. t0 in
    let db = Util.allocated_bytes () -. b0 in
    let a =
      match Hashtbl.find_opt table name with
      | Some a -> a
      | None ->
          let a = { seconds = 0.0; bytes = 0.0; samples = [] } in
          Hashtbl.add table name a;
          a
    in
    a.seconds <- a.seconds +. dt;
    a.bytes <- a.bytes +. db;
    a.samples <- dt :: a.samples;
    r
  end

let find name = Hashtbl.find_opt table name
let seconds name = match find name with Some a -> a.seconds | None -> 0.0
let bytes name = match find name with Some a -> a.bytes | None -> 0.0
let samples name = match find name with Some a -> a.samples | None -> []

(* Share of the busy part of [wall] covered by the self time (duration
   minus the time direct children cover) of the spans recorded since
   [start]. Spans named in [idle] time the benchmark's own waiting: they
   count in neither the covered time nor the busy wall, so only layer
   calls can cover it. Library spans nested inside a layer call count as
   its children. Drains the ring, so call it once, right after the
   traced section. *)
let coverage ?(idle = []) ~wall () =
  let spans = Span.drain () in
  let summary = Span.Summary.of_spans spans in
  let self =
    List.fold_left
      (fun acc p ->
        if List.mem p.Span.Summary.name idle then acc else acc +. p.Span.Summary.self)
      0.0 summary.Span.Summary.phases
  in
  let idle_s = List.fold_left (fun acc name -> acc +. seconds name) 0.0 idle in
  self /. (wall -. idle_s)

(* [Gc.quick_stat] deltas: minor and major collections, promoted bytes. *)
type gc = { minor : int; major : int; promoted_bytes : float }

let gc_mark () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections, s.Gc.promoted_words)

let gc_since (minor0, major0, promoted0) =
  let minor, major, promoted = gc_mark () in
  {
    minor = minor - minor0;
    major = major - major0;
    promoted_bytes = (promoted -. promoted0) *. float_of_int (Sys.word_size / 8);
  }
