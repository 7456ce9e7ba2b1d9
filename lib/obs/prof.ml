type pause_kind = Minor | Major | Compaction

(* Rows of the site table that snapshot_json prints. *)
let max_sites = 512

(* The SLO ladder shared with the serving layer's latency histograms:
   decades from 1µs to 100s. GC pauses live at the low end; the high
   decades exist so an outlier lands in a finite bucket instead of
   clamping the p99 to a lie. *)
let pause_buckets = [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0; 100.0 |]

(* One allocation-site (or phase-path) row. Written only under the
   session lock; scraped under the same lock. *)
type cell = {
  mutable bytes : float;
  mutable samples : int;
  mutable self_seconds : float;
}

(* The Runtime_events consumer: one cursor on this process's rings
   (one ring per domain), made by the first session and kept for the
   life of the process, since the runtime can pause its event rings
   but never stop them. [last] holds, per (ring, runtime phase), the
   timestamp in ns of a pause's runtime_begin still waiting for its
   runtime_end, or of the previous end of a major cycle. Only the
   poller holding [poll_lock] touches it. *)
type consumer = {
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  poll_lock : Mutex.t;
  last : (int * Runtime_events.runtime_phase, int) Hashtbl.t;
}

type session = {
  started_at : float;  (* Clock.now wall-clock seconds *)
  started_elapsed : float;  (* Clock.elapsed, for durations *)
  gc0 : Gc.stat;
  sites : (string, cell) Hashtbl.t;  (* stack path -> attribution *)
  by_domain : (int * string, cell) Hashtbl.t;  (* (domain, leaf phase) *)
  lock : Mutex.t;
  (* Session-local registry: pause/cycle histograms reset per session
     (so quantiles describe this session), mirrored into the default
     registry for scrapes. *)
  p_minor : Metrics.Histogram.t;
  p_major : Metrics.Histogram.t;
  p_compact : Metrics.Histogram.t;
  p_cycle : Metrics.Histogram.t;
  events : (consumer, string) result;  (* or why pause data is unavailable *)
  mutable stopped : (float * Gc.stat) option;  (* duration and GC counters at stop *)
  pauses : int Atomic.t;
  lost : int Atomic.t;  (* ring events overwritten before a poll read them *)
}

(* [current] is the running session (the hot-path gate: one atomic
   load); [latest] additionally survives [stop] so snapshots of a
   finished profile stay readable until the next [start]. *)
let current : session option Atomic.t = Atomic.make None
let latest : session option Atomic.t = Atomic.make None
let lifecycle = Mutex.create ()

let running () = match Atomic.get current with None -> false | Some _ -> true

let is_current s =
  match Atomic.get current with Some s' -> s' == s | None -> false

(* ------------------------------------------------------------------ *)
(* Frame sanitization                                                  *)
(* ------------------------------------------------------------------ *)

(* A frame name becomes one ';'-separated component of a folded stack
   line, so the separator characters themselves must not appear in it;
   the trailing " <count>" is space-separated, so spaces go too. *)
let folded_frame name =
  if name = "" then "(anonymous)"
  else
    String.map
      (fun c ->
        match c with
        | ';' -> ':'
        | ' ' | '\t' | '\n' | '\r' -> '_'
        | c when Char.code c < 0x20 -> '?'
        | c -> c)
      name

(* ------------------------------------------------------------------ *)
(* Site table                                                          *)
(* ------------------------------------------------------------------ *)

(* One more sample of [bytes] and [self_seconds] on [key]'s row of
   [rows] (the site table or the per-domain rollup). *)
let add_locked rows key ~bytes ~self_seconds =
  let cell =
    match Hashtbl.find_opt rows key with
    | Some c -> c
    | None ->
        let c = { bytes = 0.0; samples = 0; self_seconds = 0.0 } in
        Hashtbl.replace rows key c;
        c
  in
  cell.bytes <- cell.bytes +. bytes;
  cell.samples <- cell.samples + 1;
  cell.self_seconds <- cell.self_seconds +. self_seconds

(* ------------------------------------------------------------------ *)
(* Pause histograms                                                    *)
(* ------------------------------------------------------------------ *)

(* Default-registry mirrors: scrape-visible, cumulative across
   sessions (histogram series must stay monotone for Prometheus).
   Lazily created, so a run that never profiles exports no
   qnet_prof_* series at all. *)
let m_minor =
  lazy
    (Metrics.Histogram.create ~buckets:pause_buckets
       ~help:"Minor GC pauses while profiling, one per domain per collection"
       "qnet_prof_minor_pause_seconds")

let m_major =
  lazy
    (Metrics.Histogram.create ~buckets:pause_buckets
       ~help:"Major GC slices while profiling"
       "qnet_prof_major_pause_seconds")

let m_compact =
  lazy
    (Metrics.Histogram.create ~buckets:pause_buckets
       ~help:"Explicit compaction pauses while profiling"
       "qnet_prof_compaction_pause_seconds")

let m_cycle =
  lazy
    (Metrics.Histogram.create ~buckets:pause_buckets
       ~help:"Intervals between the ends of major GC cycles while profiling"
       "qnet_prof_major_cycle_seconds")

let session_histogram s = function
  | Minor -> s.p_minor
  | Major -> s.p_major
  | Compaction -> s.p_compact

let mirror_histogram = function
  | Minor -> Lazy.force m_minor
  | Major -> Lazy.force m_major
  | Compaction -> Lazy.force m_compact

let record_pause kind seconds =
  match Atomic.get current with
  | None -> ()
  | Some s ->
      if Float.is_finite seconds then begin
        let v = Float.max 0.0 seconds in
        Metrics.Histogram.observe (session_histogram s kind) v;
        Metrics.Histogram.observe (mirror_histogram kind) v;
        Atomic.incr s.pauses
      end

let record_cycle seconds =
  match Atomic.get current with
  | None -> ()
  | Some s ->
      Metrics.Histogram.observe s.p_cycle seconds;
      Metrics.Histogram.observe (Lazy.force m_cycle) seconds

(* ------------------------------------------------------------------ *)
(* Runtime_events consumer                                             *)
(* ------------------------------------------------------------------ *)

let pause_of_phase : Runtime_events.runtime_phase -> pause_kind option = function
  | EV_MINOR -> Some Minor
  | EV_MAJOR_SLICE -> Some Major
  | EV_EXPLICIT_GC_COMPACT -> Some Compaction
  | _ -> None

let ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

(* Pairs each begin with its end on the same ring. An end whose begin
   was read before the session started, or was lost, is dropped. *)
let make_callbacks last =
  let runtime_begin ring ts phase =
    if Option.is_some (pause_of_phase phase) then
      Hashtbl.replace last (ring, phase) (ns ts)
  in
  let since key ts =
    Option.map (fun t0 -> float_of_int (ns ts - t0) *. 1e-9) (Hashtbl.find_opt last key)
  in
  let runtime_end ring ts phase =
    match pause_of_phase phase with
    | Some kind ->
        Option.iter (record_pause kind) (since (ring, phase) ts);
        Hashtbl.remove last (ring, phase)
    | None ->
        (* every domain closes each cycle, so one ring times them all *)
        if phase = EV_MAJOR_GC_CYCLE_DOMAINS && ring = 0 then begin
          Option.iter record_cycle (since (ring, phase) ts);
          Hashtbl.replace last (ring, phase) (ns ts)
        end
  in
  let lost_events _ring n =
    match Atomic.get current with
    | Some s -> ignore (Atomic.fetch_and_add s.lost n)
    | None -> ()
  in
  Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ()

(* Read every ring to its head; the caller holds [c.poll_lock]. *)
let poll_locked c =
  while Runtime_events.read_poll c.cursor c.callbacks None > 0 do () done

let poll c =
  Mutex.lock c.poll_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock c.poll_lock) (fun () -> poll_locked c)

(* A phase exit never waits on another domain's poll: that poll reads
   this domain's ring too. *)
let try_poll c =
  if Mutex.try_lock c.poll_lock then
    Fun.protect ~finally:(fun () -> Mutex.unlock c.poll_lock) (fun () -> poll_locked c)

(* Runtime_events.start aborts the process when it cannot create
   <pid>.events, which the runtime writes in OCAML_RUNTIME_EVENTS_DIR
   (read once, at start-up) or else in the working directory. So the
   first session proves that directory takes a file before starting. *)
let check_ring_dir () =
  let dir =
    Option.value (Sys.getenv_opt "OCAML_RUNTIME_EVENTS_DIR")
      ~default:Filename.current_dir_name
  in
  match Filename.temp_file ~temp_dir:dir "qnet_prof" ".check" with
  | path ->
      (try Sys.remove path with Sys_error _ -> ());
      Ok ()
  | exception Sys_error msg ->
      Error (Printf.sprintf "cannot create the Runtime_events ring file in %s (%s)" dir msg)

(* The consumer, made by the first session and kept for the life of
   the process, or why it could not be made. Forced under
   [lifecycle]. *)
let consumer =
  lazy
    (match check_ring_dir () with
    | Error _ as e -> e
    | Ok () ->
        Runtime_events.start ();
        let last = Hashtbl.create 16 in
        Ok
          {
            cursor = Runtime_events.create_cursor None;
            callbacks = make_callbacks last;
            poll_lock = Mutex.create ();
            last;
          })

(* Start or resume the rings, then drain what they hold: a session
   counts no event from before it started. The caller holds
   [lifecycle]. *)
let open_events () =
  let resume = Lazy.is_val consumer in
  let events = Lazy.force consumer in
  (match events with
  | Ok c ->
      if resume then Runtime_events.resume ();
      Mutex.lock c.poll_lock;
      poll_locked c;
      Hashtbl.clear c.last;
      Mutex.unlock c.poll_lock
  | Error _ -> ());
  events

(* ------------------------------------------------------------------ *)
(* Phase attribution                                                   *)
(* ------------------------------------------------------------------ *)

(* Gc.minor_words is exact; the minor count in Gc.counters only
   advances at a minor collection, so it misses whatever the minor
   heap holds. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let bytes_per_word = float_of_int (Sys.word_size / 8)

let rec leaf = function [ f ] -> f | _ :: rest -> leaf rest | [] -> ""

let record_site ~stack ~bytes ~self_seconds =
  match Atomic.get current with
  | None -> ()
  | Some s ->
      if Float.is_finite bytes && bytes >= 0.0 && stack <> [] then begin
        let frames = List.map folded_frame stack in
        let self_seconds = Float.max 0.0 self_seconds in
        Mutex.lock s.lock;
        add_locked s.sites (String.concat ";" frames) ~bytes ~self_seconds;
        add_locked s.by_domain ((Domain.self () :> int), leaf frames) ~bytes ~self_seconds;
        Mutex.unlock s.lock;
        match s.events with Ok c -> try_poll c | Error _ -> ()
      end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let start () =
  Mutex.lock lifecycle;
  Fun.protect ~finally:(fun () -> Mutex.unlock lifecycle) @@ fun () ->
  if Atomic.get current = None then begin
    let reg = Metrics.create_registry () in
    let hist name =
      Metrics.Histogram.create ~registry:reg ~buckets:pause_buckets name
    in
    let p_minor = hist "qnet_prof_minor_pause_seconds"
    and p_major = hist "qnet_prof_major_pause_seconds"
    and p_compact = hist "qnet_prof_compaction_pause_seconds"
    and p_cycle = hist "qnet_prof_major_cycle_seconds" in
    let sites = Hashtbl.create 128 and by_domain = Hashtbl.create 16 in
    (* Gc.quick_stat counts minor words only at a minor collection,
       and major words (promotions included) only at a major slice, so
       both are forced before the first read: what the minor heaps hold
       now is counted before the session, not in it. Their pauses fall
       before the drain, outside the session too. Nothing allocates
       between the drain and [gc0], so the session's pauses and
       collection counts start together. *)
    Gc.minor ();
    ignore (Gc.major_slice 1);
    let events = open_events () in
    let gc0 = Gc.quick_stat () in
    let s =
      {
        started_at = Clock.now ();
        started_elapsed = Clock.elapsed ();
        gc0;
        sites;
        by_domain;
        lock = Mutex.create ();
        p_minor;
        p_major;
        p_compact;
        p_cycle;
        events;
        stopped = None;
        pauses = Atomic.make 0;
        lost = Atomic.make 0;
      }
    in
    Atomic.set latest (Some s);
    Atomic.set current (Some s)  (* qnet-lint: racy-ok C005 start/stop serialize on the lifecycle mutex; [current] is Atomic only for the lock-free readers *)
  end

let stop () =
  Mutex.lock lifecycle;
  Fun.protect ~finally:(fun () -> Mutex.unlock lifecycle) @@ fun () ->
  match Atomic.get current with
  | None -> ()
  | Some s ->
      (* A forced minor collection and major slice first, so that the
         last read counts what the minor heaps hold and what was
         promoted or allocated in the major heap since the last slice;
         theirs are the session's last pauses. Then drain, pause, and
         read the counters with nothing allocated in between: the
         pauses and the collection counts cover the same window. The
         second drain reads what the first one's own allocation set off
         before the pause. *)
      Gc.minor ();
      ignore (Gc.major_slice 1);
      (match s.events with
      | Ok c ->
          poll c;
          Runtime_events.pause ()
      | Error _ -> ());
      let gc1 = Gc.quick_stat () in
      (match s.events with Ok c -> poll c | Error _ -> ());
      s.stopped <- Some (Clock.elapsed () -. s.started_elapsed, gc1);
      Atomic.set current None  (* qnet-lint: racy-ok C005 start/stop serialize on the lifecycle mutex (see start) *)

(* ------------------------------------------------------------------ *)
(* Readers                                                             *)
(* ------------------------------------------------------------------ *)

type phase_self = {
  path : string;
  samples : int;
  bytes : float;
  self_seconds : float;
}

let sites () =
  match Atomic.get latest with
  | None -> []
  | Some s ->
      Mutex.lock s.lock;
      let rows =
        Hashtbl.fold
          (fun path (c : cell) acc ->
            {
              path;
              samples = c.samples;
              bytes = c.bytes;
              self_seconds = c.self_seconds;
            }
            :: acc)
          s.sites []
      in
      Mutex.unlock s.lock;
      List.sort
        (fun a b ->
          match compare b.bytes a.bytes with 0 -> compare a.path b.path | c -> c)
        rows

let to_folded () =
  match Atomic.get latest with
  | None -> []
  | Some s ->
      Mutex.lock s.lock;
      let rows =
        Hashtbl.fold
          (fun path (c : cell) acc ->
            let b = int_of_float (Float.round c.bytes) in
            if b > 0 then (path, b) :: acc else acc)
          s.sites []
      in
      Mutex.unlock s.lock;
      List.sort (fun (a, _) (b, _) -> compare a b) rows

let phase_split () =
  match Atomic.get latest with
  | None -> []
  | Some s ->
      Mutex.lock s.lock;
      let by_leaf = Hashtbl.create 16 in
      Hashtbl.iter
        (fun (_, leaf) (c : cell) ->
          Hashtbl.replace by_leaf leaf
            (c.self_seconds
            +. (try Hashtbl.find by_leaf leaf with Not_found -> 0.0)))
        s.by_domain;
      Mutex.unlock s.lock;
      Hashtbl.fold (fun leaf t acc -> (leaf, t) :: acc) by_leaf []
      |> List.sort (fun (na, a) (nb, b) ->
             match compare b a with 0 -> compare na nb | c -> c)

(* GC counters at the end of the session's window: now while it runs,
   frozen at stop. *)
let gc_now s = match s.stopped with Some (_, st) -> st | None -> Gc.quick_stat ()

let session_bytes s st =
  let words st =
    st.Gc.minor_words +. st.Gc.major_words -. st.Gc.promoted_words
  in
  Float.max 0.0 ((words st -. words s.gc0) *. bytes_per_word)

let allocated_bytes () =
  match Atomic.get latest with
  | None -> 0.0
  | Some s -> session_bytes s (gc_now s)

type pause_stats = { count : int; p50_s : float; p99_s : float }

let hist_stats h =
  {
    count = Metrics.Histogram.count h;
    p50_s = Metrics.Histogram.quantile h 0.5;
    p99_s = Metrics.Histogram.quantile h 0.99;
  }

let empty_stats = { count = 0; p50_s = nan; p99_s = nan }

let pause_summary () =
  match Atomic.get latest with
  | None -> [ (Minor, empty_stats); (Major, empty_stats); (Compaction, empty_stats) ]
  | Some s ->
      [
        (Minor, hist_stats s.p_minor);
        (Major, hist_stats s.p_major);
        (Compaction, hist_stats s.p_compact);
      ]

let major_cycle_summary () =
  match Atomic.get latest with
  | None -> empty_stats
  | Some s -> hist_stats s.p_cycle

type stats = {
  is_running : bool;
  site_rows : int;
  pauses_recorded : int;
  lost_events : int;
  runtime_events_started : bool;
}

let stats () =
  let runtime_events_started =
    Lazy.is_val consumer && Result.is_ok (Lazy.force consumer)
  in
  match Atomic.get latest with
  | None ->
      {
        is_running = false;
        site_rows = 0;
        pauses_recorded = 0;
        lost_events = 0;
        runtime_events_started;
      }
  | Some s ->
      Mutex.lock s.lock;
      let rows = Hashtbl.length s.sites in
      Mutex.unlock s.lock;
      {
        is_running = is_current s;
        site_rows = rows;
        pauses_recorded = Atomic.get s.pauses;
        lost_events = Atomic.get s.lost;
        runtime_events_started;
      }

(* ------------------------------------------------------------------ *)
(* Rusage                                                              *)
(* ------------------------------------------------------------------ *)

module Rusage = struct
  type t = {
    utime_s : float;
    stime_s : float;
    rss_bytes : float;
    max_rss_bytes : float;
  }

  let read_file path =
    match open_in path with
    | exception Sys_error _ -> None
    | ic ->
        let buf = Buffer.create 1024 in
        (try
           while true do
             Buffer.add_channel buf ic 1
           done
         with End_of_file -> ());
        close_in_noerr ic;
        Some (Buffer.contents buf)

  (* /proc/self/stat: utime and stime are fields 14 and 15 (1-based),
     counted after the parenthesized comm field (which can itself
     contain spaces), in USER_HZ ticks — 100 on every Linux ABI. *)
  let parse_stat s =
    match String.rindex_opt s ')' with
    | None -> None
    | Some i ->
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        let fields =
          List.filter (fun f -> f <> "") (String.split_on_char ' ' rest)
        in
        (* after ")": state is field 3 overall, so utime (14) and
           stime (15) are the 12th and 13th entries here (1-based) *)
        let nth n = List.nth_opt fields (n - 1) in
        (match (nth 12, nth 13) with
        | Some u, Some t -> (
            match (float_of_string_opt u, float_of_string_opt t) with
            | Some u, Some t -> Some (u /. 100.0, t /. 100.0)
            | _ -> None)
        | _ -> None)

  let parse_status_kb s key =
    let prefix = key ^ ":" in
    let lines = String.split_on_char '\n' s in
    List.find_map
      (fun line ->
        if String.length line > String.length prefix
           && String.sub line 0 (String.length prefix) = prefix
        then
          let rest =
            String.trim
              (String.sub line (String.length prefix)
                 (String.length line - String.length prefix))
          in
          match String.split_on_char ' ' rest with
          | kb :: _ -> float_of_string_opt kb
          | [] -> None
        else None)
      lines

  let sample () =
    match (read_file "/proc/self/stat", read_file "/proc/self/status") with
    | Some stat, Some status -> (
        match
          ( parse_stat stat,
            parse_status_kb status "VmRSS",
            parse_status_kb status "VmHWM" )
        with
        | Some (utime_s, stime_s), Some rss_kb, Some hwm_kb ->
            Some
              {
                utime_s;
                stime_s;
                rss_bytes = rss_kb *. 1024.0;
                max_rss_bytes = hwm_kb *. 1024.0;
              }
        | _ -> None)
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Gauges + JSON snapshot                                              *)
(* ------------------------------------------------------------------ *)

let gauge name help =
  lazy (Metrics.Gauge.create ~help ("qnet_prof_" ^ name))

let g_alloc = gauge "allocated_bytes" "Bytes allocated since the profiling session started"
let g_minor_coll = gauge "minor_collections" "Minor collections since the profiling session started"
let g_major_coll = gauge "major_collections" "Major collections since the profiling session started"
let g_compactions = gauge "compactions" "Compactions since the profiling session started"
let g_heap = gauge "heap_bytes" "Major heap size at the last profile snapshot"
let g_rss = gauge "rss_bytes" "Resident set size at the last profile snapshot"
let g_max_rss = gauge "max_rss_bytes" "Peak resident set size at the last profile snapshot"
let g_utime = gauge "utime_seconds" "User CPU time at the last profile snapshot"
let g_stime = gauge "stime_seconds" "System CPU time at the last profile snapshot"

let publish_gauges s st rusage =
  let d_int f = float_of_int (f st - f s.gc0) in
  Metrics.Gauge.set (Lazy.force g_alloc) (session_bytes s st);
  Metrics.Gauge.set (Lazy.force g_minor_coll)
    (d_int (fun g -> g.Gc.minor_collections));
  Metrics.Gauge.set (Lazy.force g_major_coll)
    (d_int (fun g -> g.Gc.major_collections));
  Metrics.Gauge.set (Lazy.force g_compactions) (d_int (fun g -> g.Gc.compactions));
  Metrics.Gauge.set (Lazy.force g_heap)
    (float_of_int st.Gc.heap_words *. bytes_per_word);
  match rusage with
  | None -> ()
  | Some r ->
      Metrics.Gauge.set (Lazy.force g_rss) r.Rusage.rss_bytes;
      Metrics.Gauge.set (Lazy.force g_max_rss) r.Rusage.max_rss_bytes;
      Metrics.Gauge.set (Lazy.force g_utime) r.Rusage.utime_s;
      Metrics.Gauge.set (Lazy.force g_stime) r.Rusage.stime_s

let num v = if Float.is_finite v then Printf.sprintf "%.9g" v else "null"

let pause_json name st =
  Printf.sprintf "\"%s\":{\"count\":%d,\"p50_s\":%s,\"p99_s\":%s}" name st.count
    (num st.p50_s) (num st.p99_s)

let snapshot_json () =
  match Atomic.get latest with
  | None -> "{\"running\":false}"
  | Some s ->
      (match s.events with Ok c when is_current s -> poll c | _ -> ());
      let st = gc_now s in
      let rusage = Rusage.sample () in
      publish_gauges s st rusage;
      let duration =
        match s.stopped with
        | Some (d, _) -> d
        | None -> Clock.elapsed () -. s.started_elapsed
      in
      let rows = sites () in
      let total_bytes = List.fold_left (fun a r -> a +. r.bytes) 0.0 rows in
      let top =
        List.filteri (fun i _ -> i < max_sites) rows
        |> List.map (fun r ->
               Printf.sprintf
                 "{\"stack\":\"%s\",\"bytes\":%s,\"samples\":%d,\"self_seconds\":%s}"
                 (Jsonx.escape r.path) (num r.bytes) r.samples
                 (num r.self_seconds))
        |> String.concat ","
      in
      let pauses =
        String.concat ","
          (List.map
             (fun (kind, st) ->
               pause_json
                 (match kind with
                 | Minor -> "minor"
                 | Major -> "major"
                 | Compaction -> "compaction")
                 st)
             (pause_summary ())
          @ [ pause_json "major_cycle" (major_cycle_summary ()) ])
      in
      let domains =
        Mutex.lock s.lock;
        let per =
          Hashtbl.fold
            (fun (d, leaf) (c : cell) acc ->
              (d, leaf, c.samples, c.bytes, c.self_seconds) :: acc)
            s.by_domain []
        in
        Mutex.unlock s.lock;
        List.sort compare per
        |> List.map (fun (d, leaf, n, b, t) ->
               Printf.sprintf
                 "{\"domain\":%d,\"phase\":\"%s\",\"count\":%d,\"alloc_bytes\":%s,\"self_seconds\":%s}"
                 d (Jsonx.escape leaf) n (num b) (num t))
        |> String.concat ","
      in
      let gd f = f st - f s.gc0 in
      Printf.sprintf
        "{\"running\":%b,\"started_at\":%s,\"duration_s\":%s,\
         \"alloc\":{\"total_bytes\":%s,\"sites\":%d,\"top\":[%s]},\
         \"gc\":{\"allocated_bytes\":%s,\"minor_collections\":%d,\"major_collections\":%d,\"compactions\":%d,\"heap_bytes\":%s},\
         \"pauses\":{\"available\":%b,\"reason\":%s,\"lost_events\":%d,%s},\
         \"rusage\":%s,\
         \"domains\":[%s]}"
        (is_current s) (num s.started_at) (num duration)
        (num total_bytes) (List.length rows) top
        (num (session_bytes s st))
        (gd (fun g -> g.Gc.minor_collections))
        (gd (fun g -> g.Gc.major_collections))
        (gd (fun g -> g.Gc.compactions))
        (num (float_of_int st.Gc.heap_words *. bytes_per_word))
        (Result.is_ok s.events)
        (match s.events with
        | Ok _ -> "null"
        | Error why -> "\"" ^ Jsonx.escape why ^ "\"")
        (Atomic.get s.lost) pauses
        (match rusage with
        | None -> "null"
        | Some r ->
            Printf.sprintf
              "{\"utime_s\":%s,\"stime_s\":%s,\"rss_bytes\":%s,\"max_rss_bytes\":%s}"
              (num r.Rusage.utime_s) (num r.Rusage.stime_s)
              (num r.Rusage.rss_bytes) (num r.Rusage.max_rss_bytes))
        domains
