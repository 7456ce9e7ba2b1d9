module Trace = Qnet_trace.Trace
module Store = Event_store
module Metrics = Qnet_obs.Metrics
module Span = Qnet_obs.Span
module Clock = Qnet_obs.Clock

let m_window_seconds =
  lazy
    (Metrics.Histogram.create
       ~buckets:[| 1e-3; 1e-2; 0.1; 1.0; 10.0; 100.0 |]
       ~help:"Wall time to fit one online window" "qnet_online_window_seconds")

let m_windows kind =
  Metrics.Counter.create ~labels:[ ("status", kind) ]
    ~help:"Online windows fitted vs. skipped for lack of tasks"
    "qnet_online_windows_total"

let m_windows_run = lazy (m_windows "run")
let m_windows_skipped = lazy (m_windows "skipped")

let m_tasks_dropped =
  lazy
    (Metrics.Counter.create
       ~help:"Tasks dropped during online windowing (corrupt or missing entry events)"
       "qnet_online_tasks_dropped_total")

type step = {
  window : float * float;
  num_tasks : int;
  params : Params.t;
  mean_service : float array;
}

type config = { num_windows : int; iterations : int; min_tasks : int }

let default_config = { num_windows = 6; iterations = 80; min_tasks = 10 }

(* entry time of each task = departure of its initial event *)
let entry_times trace =
  let tbl = Hashtbl.create 64 in
  Array.iter
    (fun e ->
      if Float.equal e.Trace.arrival 0.0 then Hashtbl.replace tbl e.Trace.task e.Trace.departure)
    trace.Trace.events;
  tbl

let run ?(config = default_config) ?init ?(on_warning = fun _ -> ()) rng trace ~mask =
  if config.num_windows < 1 then invalid_arg "Online_stem.run: need >= 1 window";
  if Array.length mask <> Array.length trace.Trace.events then
    invalid_arg "Online_stem.run: mask length mismatch";
  let entries = entry_times trace in
  (* A corrupted logger field must cost one task, not the whole
     trajectory: drop tasks whose entry timestamp is NaN/±inf. *)
  let corrupt =
    Hashtbl.fold
      (fun task t acc -> if Float.is_finite t then acc else task :: acc)
      entries []
  in
  if corrupt <> [] then begin
    List.iter (Hashtbl.remove entries) corrupt;
    if Metrics.enabled () then
      Metrics.Counter.inc
        ~by:(float_of_int (List.length corrupt))
        (Lazy.force m_tasks_dropped);
    on_warning
      (Printf.sprintf "dropped %d task(s) with non-finite entry timestamps"
         (List.length corrupt))
  end;
  (* Tasks with no entry event at all (malformed ingestion) cannot be
     assigned to a window. *)
  let missing = Hashtbl.create 8 in
  Array.iter
    (fun e ->
      if not (Hashtbl.mem entries e.Trace.task) then
        Hashtbl.replace missing e.Trace.task ())
    trace.Trace.events;
  if Hashtbl.length missing > 0 then begin
    if Metrics.enabled () then
      Metrics.Counter.inc
        ~by:(float_of_int (Hashtbl.length missing))
        (Lazy.force m_tasks_dropped);
    on_warning
      (Printf.sprintf "dropped %d task(s) with no usable entry event"
         (Hashtbl.length missing))
  end;
  if Hashtbl.length entries = 0 then
    invalid_arg "Online_stem.run: no task has a finite entry timestamp";
  (* Windows are assigned by timestamp value, so out-of-order arrival
     of entries is harmless (equivalent to sorting first) — but it
     usually means the ingestion pipeline reordered the log, which is
     worth flagging. *)
  let by_task =
    Hashtbl.fold (fun task t acc -> (task, t) :: acc) entries []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  let ordered =
    fst
      (List.fold_left
         (fun (ok, prev) (_, t) -> (ok && t >= prev, Float.max prev t))
         (true, neg_infinity) by_task)
  in
  if not ordered then
    on_warning
      "entry timestamps out of task order; windows assigned by timestamp \
       value (equivalent to sorting)";
  let lo = List.fold_left (fun acc (_, t) -> Float.min acc t) infinity by_task in
  let hi =
    List.fold_left (fun acc (_, t) -> Float.max acc t) neg_infinity by_task
  in
  let width =
    let w = (hi -. lo) /. float_of_int config.num_windows in
    if w > 0.0 then w
    else begin
      (* every surviving task entered at the same instant: fall back to
         unit-width windows so [t0 < t1] always holds and window 0
         takes all tasks, instead of producing an empty or inverted
         window *)
      on_warning
        "degenerate time span: all entry timestamps coincide; using \
         unit-width windows";
      1.0
    end
  in
  let window_of task =
    match Hashtbl.find_opt entries task with
    | None -> -1 (* dropped task: matches no window *)
    | Some t ->
        Stdlib.min (config.num_windows - 1) (int_of_float ((t -. lo) /. width))
  in
  let steps = ref [] in
  let previous = ref init in
  for w = 0 to config.num_windows - 1 do
    let t0 = lo +. (float_of_int w *. width) in
    let t1 = t0 +. width in
    (* Whole tasks whose entry falls in the window, with their mask.
       Times are shifted so the window starts near 0: the q0 service
       sum telescopes to the last entry time, so without the shift the
       window's arrival-rate estimate would absorb all the time since
       the trace began. *)
    let shift e =
      {
        e with
        Trace.arrival = (if Float.equal e.Trace.arrival 0.0 then 0.0 else e.Trace.arrival -. t0);
        departure = e.Trace.departure -. t0;
      }
    in
    let events = ref [] and mask_rev = ref [] in
    Array.iteri
      (fun i e ->
        if window_of e.Trace.task = w then begin
          events := shift e :: !events;
          mask_rev := mask.(i) :: !mask_rev
        end)
      trace.Trace.events;
    let events = List.rev !events in
    let sub_mask = Array.of_list (List.rev !mask_rev) in
    let num_tasks =
      List.sort_uniq compare (List.map (fun e -> e.Trace.task) events) |> List.length
    in
    if num_tasks >= config.min_tasks then begin
      let t_start = if Metrics.enabled () then Clock.now () else 0.0 in
      Span.with_span "online.window"
        ~attrs:
          [ ("window", string_of_int w); ("tasks", string_of_int num_tasks) ]
      @@ fun () ->
      let sub_trace = Trace.create ~num_queues:trace.Trace.num_queues events in
      (* Trace.create sorts by (task, arrival): rebuild the mask in that
         order by matching (task, departure) keys *)
      let key e = (e.Trace.task, e.Trace.queue, e.Trace.departure) in
      let mask_by_key = Hashtbl.create (Array.length sub_mask) in
      List.iteri
        (fun i e -> Hashtbl.replace mask_by_key (key e) sub_mask.(i))
        events;
      let observed =
        Array.map (fun e -> Hashtbl.find mask_by_key (key e)) sub_trace.Trace.events
      in
      let store = Store.of_trace ~observed sub_trace in
      let stem_config =
        {
          Stem.default_config with
          Stem.iterations = config.iterations;
          burn_in = config.iterations / 2;
        }
      in
      let result = Stem.run ~config:stem_config ?init:!previous rng store in
      previous := Some result.Stem.params;
      steps :=
        {
          window = (t0, t1);
          num_tasks;
          params = result.Stem.params;
          mean_service = result.Stem.mean_service;
        }
        :: !steps;
      if Metrics.enabled () then begin
        Metrics.Histogram.observe (Lazy.force m_window_seconds)
          (Clock.now () -. t_start);
        Metrics.Counter.inc (Lazy.force m_windows_run)
      end
    end
    else if Metrics.enabled () then
      Metrics.Counter.inc (Lazy.force m_windows_skipped)
  done;
  List.rev !steps

let arrival_rate_trajectory steps =
  List.map
    (fun s ->
      let t0, t1 = s.window in
      (0.5 *. (t0 +. t1), Params.arrival_rate s.params))
    steps
