module Trace = Qnet_trace.Trace
module Params = Qnet_core.Params
module Store = Qnet_core.Event_store
module Stem = Qnet_core.Stem
module Obs = Qnet_core.Observation
module Supervisor = Qnet_runtime.Supervisor
module Online = Qnet_core.Online_stem
module Fault = Qnet_runtime.Fault
module Metrics = Qnet_obs.Metrics
module Clock = Qnet_obs.Clock
module Jsonx = Qnet_obs.Jsonx
module Span = Qnet_obs.Span
module Trace_ctx = Qnet_obs.Trace_ctx
module Rng = Qnet_prob.Rng

let log_src = Logs.Src.create "qnet.serve" ~doc:"Sharded inference daemon"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  num_queues : int;
  queue_capacity : int;
  refit_events : int;
  refit_interval : float;
  min_tenant_events : int;
  max_tenant_events : int;
  chains : int;
  min_chains : int;
  fit_iterations : int;
  max_restarts : int;
  poll_interval : float;
  seed : int;
  fit_deadline : float;
  breaker_restarts : int;
  breaker_cooldown : float;
  promote_rounds : int;
  hot_watermark : float;
  cool_watermark : float;
  max_log_bytes : int;
}

let default_config =
  {
    num_queues = 3;
    queue_capacity = 1024;
    refit_events = 120;
    refit_interval = 2.0;
    min_tenant_events = 40;
    max_tenant_events = 4000;
    chains = 2;
    min_chains = 1;
    fit_iterations = 30;
    max_restarts = 3;
    poll_interval = 0.05;
    seed = 1;
    fit_deadline = 10.0;
    breaker_restarts = 3;
    breaker_cooldown = 10.0;
    promote_rounds = 3;
    hot_watermark = 0.75;
    cool_watermark = 0.25;
    max_log_bytes = 4 * 1024 * 1024;
  }

(* The share of a tenant's tasks a refit treats as observed. The daemon
   is sent every timing and hides the rest from the fit, to stand in for
   a collector that traces only some requests; it stays until ingest
   accepts records with missing times. *)
let obs_fraction = 0.5

(* A tenant with this many unfitted events gets an incremental refit
   even on a [Full_fits] shard. *)
let hot_tenant_events = 960

(* The restart backoff, in seconds. *)
let backoff_base = 0.25
let backoff_max = 4.0

(* The restart circuit breaker counts restarts over this many seconds. *)
let breaker_window = 30.0

type status =
  | Starting
  | Healthy
  | Degraded of string
  | Restarting of int
  | Failed of string

let status_label = function
  | Starting -> "starting"
  | Healthy -> "healthy"
  | Degraded _ -> "degraded"
  | Restarting _ -> "restarting"
  | Failed _ -> "failed"

(* The degradation ladder. A shard serves posteriors at every rung;
   what changes is how fresh they can be: full supervised refits, then
   bounded-memory incremental refits for hot shards, then stale serve
   only (pinned) when even incremental refits blow the deadline budget
   or the restart circuit breaker is open. *)
type level = Full_fits | Incremental | Pinned

let level_label = function
  | Full_fits -> "full"
  | Incremental -> "incremental"
  | Pinned -> "pinned"

let level_rank = function Full_fits -> 0 | Incremental -> 1 | Pinned -> 2

type posterior = {
  tenant : string;
  params : Params.t;
  mean_service : float array;
  iteration : int;
  round : int;
  num_events : int;
  from_checkpoint : bool;
  fitted_at : float;
  fit_mode : string;
}

(* ------------------------------------------------------------------ *)
(* Checkpoint codec: one line of JSON, atomically renamed into place.  *)
(* ------------------------------------------------------------------ *)

module Ckpt = struct
  let version = 1

  type tenant_entry = {
    tenant : string;
    rates : float array;
    arrival_queue : int;
    mean_service : float array;
    iteration : int;
    round : int;
    num_events : int;
  }

  type snapshot = {
    iterations : int;
    rounds : int;
    restarts : int;
    tenants : tenant_entry list;
  }

  let to_line s =
    let num_of_int i = Jsonx.Num (float_of_int i) in
    let arr xs = Jsonx.Arr (Array.to_list (Array.map (fun v -> Jsonx.Num v) xs)) in
    Jsonx.render
      (Jsonx.Obj
         [
           ("version", num_of_int version);
           ("iterations", num_of_int s.iterations);
           ("rounds", num_of_int s.rounds);
           ("restarts", num_of_int s.restarts);
           ( "tenants",
             Jsonx.Arr
               (List.map
                  (fun t ->
                    Jsonx.Obj
                      [
                        ("tenant", Jsonx.Str t.tenant);
                        ("rates", arr t.rates);
                        ("arrival_queue", num_of_int t.arrival_queue);
                        ("mean_service", arr t.mean_service);
                        ("iteration", num_of_int t.iteration);
                        ("round", num_of_int t.round);
                        ("num_events", num_of_int t.num_events);
                      ])
                  s.tenants) );
         ])

  let int_field fields k =
    match List.assoc_opt k fields with
    | Some (Jsonx.Num v)
      when Float.is_finite v && Float.equal (Float.rem v 1.0) 0.0 && v >= 0.0 ->
        Ok (int_of_float v)
    | _ -> Error (Printf.sprintf "missing/invalid %S" k)

  let float_array_field fields k =
    match List.assoc_opt k fields with
    | Some (Jsonx.Arr vs) -> (
        let out =
          List.map (function Jsonx.Num v -> Some v | _ -> None) vs
        in
        if List.exists Option.is_none out then
          Error (Printf.sprintf "non-numeric entry in %S" k)
        else Ok (Array.of_list (List.filter_map Fun.id out)))
    | _ -> Error (Printf.sprintf "missing/invalid %S" k)

  let ( let* ) = Result.bind

  let tenant_of_fields fields =
    let* tenant =
      match List.assoc_opt "tenant" fields with
      | Some (Jsonx.Str s) when Ingest.valid_tenant s -> Ok s
      | _ -> Error "missing/invalid \"tenant\""
    in
    let* rates = float_array_field fields "rates" in
    let* arrival_queue = int_field fields "arrival_queue" in
    let* mean_service = float_array_field fields "mean_service" in
    let* iteration = int_field fields "iteration" in
    let* round = int_field fields "round" in
    let* num_events = int_field fields "num_events" in
    if
      Array.length rates = 0
      || Array.exists (fun r -> (not (Float.is_finite r)) || r <= 0.0) rates
    then Error (Printf.sprintf "invalid rates for tenant %S" tenant)
    else if arrival_queue >= Array.length rates then
      Error (Printf.sprintf "arrival queue out of range for tenant %S" tenant)
    else
      Ok
        { tenant; rates; arrival_queue; mean_service; iteration; round;
          num_events }

  let of_line line =
    match Jsonx.parse_object (String.trim line) with
    | Error m -> Error (Printf.sprintf "bad checkpoint json: %s" m)
    | Ok fields -> (
        let* v = int_field fields "version" in
        if v <> version then
          Error
            (Printf.sprintf "checkpoint version %d unsupported (want %d)" v
               version)
        else
          let* iterations = int_field fields "iterations" in
          let* rounds = int_field fields "rounds" in
          let* restarts = int_field fields "restarts" in
          match List.assoc_opt "tenants" fields with
          | Some (Jsonx.Arr entries) -> (
              let decoded =
                List.map
                  (function
                    | Jsonx.Obj f -> tenant_of_fields f
                    | _ -> Error "tenant entry is not an object")
                  entries
              in
              match
                List.find_opt (function Error _ -> true | Ok _ -> false) decoded
              with
              | Some (Error m) -> Error m
              | _ ->
                  Ok
                    {
                      iterations;
                      rounds;
                      restarts;
                      tenants =
                        List.filter_map
                          (function Ok t -> Some t | Error _ -> None)
                          decoded;
                    })
          | _ -> Error "missing/invalid \"tenants\"")
end

let backoff ~base ~max_ attempt =
  let a = Stdlib.max 1 attempt in
  Stdlib.min max_ (base *. (2.0 ** float_of_int (a - 1)))

(* ------------------------------------------------------------------ *)
(* Shard state                                                         *)
(* ------------------------------------------------------------------ *)

(* What travels through the ingest queue: the record itself plus the
   trace context minted at the edge (None for the ~99% unsampled) and
   the enqueue timestamp on the Clock.elapsed scale, so the worker can
   attribute queue-wait per tenant. [enqueued_at = nan] marks items
   that never crossed the queue (durable-log replay) and suppresses
   their wait accounting. *)
type item = {
  record : Ingest.record;
  trace : Trace_ctx.t option;
  enqueued_at : float;
}

(* Trace contexts waiting for the tenant's next refit; bounded so a
   tenant that never becomes due cannot accumulate contexts. *)
let max_pending_traces = 16

type tenant_state = {
  mutable events : Trace.event list;  (* newest first *)
  mutable count : int;
  mutable since_fit : int;
  mutable post : posterior option;
  mutable pending_traces : Trace_ctx.t list;  (* newest first *)
}

type fault_state = {
  spec : Fault.service_fault;
  mutable fired : bool;  (* qnet-lint: racy-ok C001 written only by the worker thread (check_faults) *)
  mutable slow_until : float;  (* qnet-lint: racy-ok C001 written only by the worker thread (check_faults) *)
}

type t = {
  shard_id : int;
  cfg : config;
  dir : string;
  ingest_queue : item Bounded_queue.t;
  mutex : Mutex.t;
  tenant_tbl : (string, tenant_state) Hashtbl.t;
  mutable st : status;
  mutable iters : int;
  mutable round_count : int;
  mutable restart_count : int;
  mutable was_resumed : bool;
  mutable err : string option;
  mutable last_fit_scan : float;  (* qnet-lint: racy-ok C001 worker-owned; cross-thread refit_lag read is monitoring-only and tolerates staleness *)
  mutable log_oc : out_channel option;  (* qnet-lint: racy-ok C001 worker-owned; stop closes it only after joining the worker *)
  mutable ckpt_fail_pending : bool;  (* qnet-lint: racy-ok C001 worker-owned fault latch *)
  stopping : bool Atomic.t;
  mutable worker : Thread.t option;
  faults : fault_state list;
  started_at : float;
  (* degradation ladder *)
  mutable lvl : level;
  mutable lvl_reason : string option;
  mutable miss_streak : int;  (* consecutive rounds over the deadline *)
  mutable clean_streak : int;  (* promotion hysteresis counter *)
  mutable restart_stamps : float list;  (* recent restarts, newest first *)
  mutable pinned_until : float;  (* breaker cooldown deadline *)
  mutable last_ladder_eval : float;  (* qnet-lint: racy-ok C001 worker-owned; evaluate_ladder runs on the worker loop only *)
  (* drain measurement (worker thread only) *)
  mutable drain_ewma : float;  (* qnet-lint: racy-ok C001 worker-thread-only drain measurement *)
  mutable last_drain : float;  (* qnet-lint: racy-ok C001 worker-thread-only drain measurement *)
  mutable last_pass : float;  (* qnet-lint: racy-ok C001 worker-thread-only drain measurement *)
  (* overload fault throttle (worker thread only) *)
  mutable overload_rps : float;  (* qnet-lint: racy-ok C001 worker-thread-only throttle; 0 = no throttle *)
  mutable overload_debt : float;  (* qnet-lint: racy-ok C001 worker-thread-only token bucket *)
  (* durable-log state *)
  mutable compaction_suspended : bool;  (* qnet-lint: racy-ok C001 worker-owned latch armed by corruption faults *)
  mutable stale_lines : int;  (* log lines no window holds: trimmed by the cap or quarantined by replay *)
  mutable corrupt_frames : int;
  mutable torn_tails : int;
  mutable replayed_events : int;
  quarantine : Ingest.Dead_letter.t;
  depth_gauge : Metrics.Gauge.t;
  iter_gauge : Metrics.Gauge.t;
  level_gauge : Metrics.Gauge.t;
}

let m_fits = Serve_metrics.counter "qnet_serve_fits_total"
let m_fit_failures = Serve_metrics.counter "qnet_serve_fit_failures_total"
let m_repair_dropped = Serve_metrics.counter "qnet_serve_repair_dropped_total"
let m_restarts = Serve_metrics.counter "qnet_serve_shard_restarts_total"
let m_checkpoints = Serve_metrics.counter "qnet_serve_checkpoints_total"

let m_checkpoint_failures =
  Serve_metrics.counter "qnet_serve_checkpoint_failures_total"

let m_resumes = Serve_metrics.counter "qnet_serve_resumes_total"
let m_faults = Serve_metrics.counter "qnet_serve_faults_injected_total"
let m_demotions = Serve_metrics.counter "qnet_serve_degrade_demotions_total"
let m_promotions = Serve_metrics.counter "qnet_serve_degrade_promotions_total"

let m_incremental_fits =
  Serve_metrics.counter "qnet_serve_degrade_incremental_fits_total"

let m_breaker_trips =
  Serve_metrics.counter "qnet_serve_degrade_breaker_trips_total"

let m_log_corrupt = Serve_metrics.counter "qnet_serve_log_corrupt_frames_total"
let m_log_torn = Serve_metrics.counter "qnet_serve_log_torn_tails_total"
let m_log_rotations = Serve_metrics.counter "qnet_serve_log_rotations_total"
let g_level = Serve_metrics.gauge "qnet_serve_degrade_level"

(* The label-less qnet_serve_degrade_level series is the max over
   shards alive in this process; each shard also exports its own
   labeled series. *)
let level_registry : (int, int) Hashtbl.t =
  Hashtbl.create 8 (* qnet-lint: allow D002 always accessed under level_registry_mutex *)
let level_registry_mutex = Mutex.create ()

let ckpt_path t = Filename.concat t.dir "shard.ckpt"
let log_path t = Filename.concat t.dir "events.log"
let log1_path t = log_path t ^ ".1"
let quarantine_path dir = Filename.concat dir "log-quarantine.jsonl"

let id t = t.shard_id
let queue t = t.ingest_queue
let status t = Mutex.protect t.mutex (fun () -> t.st)
let iterations t = Mutex.protect t.mutex (fun () -> t.iters)
let rounds t = Mutex.protect t.mutex (fun () -> t.round_count)
let restarts t = Mutex.protect t.mutex (fun () -> t.restart_count)
let resumed t = t.was_resumed
let queue_depth t = Bounded_queue.length t.ingest_queue
let last_error t = Mutex.protect t.mutex (fun () -> t.err)
let level t = Mutex.protect t.mutex (fun () -> t.lvl)
let degraded_reason t = Mutex.protect t.mutex (fun () -> t.lvl_reason)
let log_corrupt_frames t = Mutex.protect t.mutex (fun () -> t.corrupt_frames)
let log_torn_tails t = Mutex.protect t.mutex (fun () -> t.torn_tails)
let replayed_events t = Mutex.protect t.mutex (fun () -> t.replayed_events)

(* Worker-thread-written float; word-sized reads don't tear, and a
   slightly stale drain estimate is fine for Retry-After math. *)
let drain_rate t = t.drain_ewma

let refit_lag t =
  let backlog =
    Mutex.protect t.mutex (fun () ->
        Hashtbl.fold
          (fun _ ts acc -> acc || ts.since_fit > 0)
          t.tenant_tbl false)
  in
  if backlog then Float.max 0.0 (Clock.now () -. t.last_fit_scan) else 0.0

(* Must be called with t.mutex held (reads t.lvl). *)
let publish_level t =
  let rank = level_rank t.lvl in
  Metrics.Gauge.set t.level_gauge (float_of_int rank);
  Mutex.protect level_registry_mutex (fun () ->
      Hashtbl.replace level_registry t.shard_id rank;
      let worst = Hashtbl.fold (fun _ r acc -> Stdlib.max r acc) level_registry 0 in
      Metrics.Gauge.set (Lazy.force g_level) (float_of_int worst))

let tenants t =
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold (fun k _ acc -> k :: acc) t.tenant_tbl [])
  |> List.sort String.compare

let posterior t ~tenant =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.tenant_tbl tenant with
      | None -> None
      | Some ts -> ts.post)

let knows_tenant t ~tenant =
  Mutex.protect t.mutex (fun () -> Hashtbl.mem t.tenant_tbl tenant)

(* Sleep in small slices so stop and crash recovery stay responsive. *)
let interruptible_sleep t seconds =
  let deadline = Clock.now () +. seconds in
  while (not (Atomic.get t.stopping)) && Clock.now () < deadline do
    Thread.delay (Stdlib.min 0.05 seconds)
  done

(* ------------------------------------------------------------------ *)
(* Event log                                                           *)
(* ------------------------------------------------------------------ *)

let reopen_log t =
  (match t.log_oc with
  | Some oc -> close_out_noerr oc
  | None -> ());
  t.log_oc <-
    (match open_out_gen [ Open_append; Open_creat ] 0o644 (log_path t) with
    | oc -> Some oc
    | exception Sys_error m ->
        Log.warn (fun f -> f "shard %d: cannot open event log: %s" t.shard_id m);
        None)

(* Rotate the active segment aside so replay cost stays bounded even
   when compaction is suspended or checkpoints are failing. If a
   previous segment exists its contents are preserved by appending
   (compaction normally removes it first). *)
let rotate_log t =
  (match t.log_oc with
  | Some oc ->
      close_out_noerr oc;
      t.log_oc <- None
  | None -> ());
  (try
     if Sys.file_exists (log1_path t) then begin
       let content = In_channel.with_open_bin (log_path t) In_channel.input_all in
       Out_channel.with_open_gen
         [ Open_append; Open_creat; Open_binary ]
         0o644 (log1_path t)
         (fun oc -> Out_channel.output_string oc content);
       Sys.remove (log_path t)
     end
     else Sys.rename (log_path t) (log1_path t);
     Metrics.Counter.inc (Lazy.force m_log_rotations)
   with Sys_error m ->
     Log.warn (fun f -> f "shard %d: log rotation failed: %s" t.shard_id m));
  reopen_log t

let append_log t records =
  match t.log_oc with
  | None -> ()
  | Some oc -> (
      try
        List.iter
          (fun r ->
            output_string oc (Framed_log.frame (Ingest.to_json_line r));
            output_char oc '\n')
          records;
        flush oc;
        (* the file's length: on an append channel [pos_out] counts only
           the bytes written since it was opened *)
        if out_channel_length oc > t.cfg.max_log_bytes && not t.compaction_suspended
        then rotate_log t
      with Sys_error m ->
        Log.warn (fun f -> f "shard %d: event log write failed: %s" t.shard_id m);
        close_out_noerr oc;
        t.log_oc <- None)

(* --- injected disk corruption (worker thread only) ----------------- *)

(* Chop the last durable record in half mid-frame — exactly what a
   power cut during a write leaves behind — then rotate the torn
   segment aside so subsequent appends cannot accidentally heal it.
   Replay must truncate the segment back to its last valid frame. *)
let tear_log_tail t =
  (match t.log_oc with
  | Some oc ->
      close_out_noerr oc;
      t.log_oc <- None
  | None -> ());
  (try
     let path = log_path t in
     if Sys.file_exists path then begin
       let content = In_channel.with_open_bin path In_channel.input_all in
       let len = String.length content in
       if len > 1 then begin
         let body_end = if Char.equal content.[len - 1] '\n' then len - 1 else len in
         let start =
           match String.rindex_from_opt content (body_end - 1) '\n' with
           | Some i -> i + 1
           | None -> 0
         in
         let last_len = body_end - start in
         if last_len > 1 then begin
           Unix.truncate path (start + (last_len / 2));
           rotate_log t
         end
       end
     end
   with
  | Sys_error m ->
      Log.warn (fun f -> f "shard %d: torn-write injection failed: %s" t.shard_id m)
  | Unix.Unix_error (e, _, _) ->
      Log.warn (fun f ->
          f "shard %d: torn-write injection failed: %s" t.shard_id
            (Unix.error_message e)));
  if t.log_oc = None then reopen_log t

(* Flip the low bit of the last payload byte of the middle record: the
   frame keeps its shape and length but fails its CRC, so replay must
   quarantine exactly this one frame. *)
let flip_bit_in_log t =
  (match t.log_oc with
  | Some oc ->
      close_out_noerr oc;
      t.log_oc <- None
  | None -> ());
  let patch path =
    if not (Sys.file_exists path) then false
    else
      try
        let content = In_channel.with_open_bin path In_channel.input_all in
        (* spans of complete (newline-terminated) lines *)
        let spans = ref [] in
        let start = ref 0 in
        String.iteri
          (fun i c ->
            if Char.equal c '\n' then begin
              if i > !start then spans := (!start, i) :: !spans;
              start := i + 1
            end)
          content;
        match List.rev !spans with
        | [] -> false
        | spans ->
            let _, stop = List.nth spans (List.length spans / 2) in
            let b = Bytes.of_string content in
            Bytes.set b (stop - 1)
              (Char.chr (Char.code (Bytes.get b (stop - 1)) lxor 1));
            let tmp = path ^ ".tmp" in
            Out_channel.with_open_bin tmp (fun oc ->
                Out_channel.output_bytes oc b);
            Sys.rename tmp path;
            true
      with Sys_error m ->
        Log.warn (fun f ->
            f "shard %d: bit-flip injection failed: %s" t.shard_id m);
        false
  in
  if not (patch (log_path t)) then ignore (patch (log1_path t) : bool);
  reopen_log t

(* ------------------------------------------------------------------ *)
(* Faults                                                              *)
(* ------------------------------------------------------------------ *)

let fire_fault t fs =
  fs.fired <- true;
  Metrics.Counter.inc (Lazy.force m_faults);
  Log.warn (fun f ->
      f "shard %d: injecting %s" t.shard_id
        (Fault.service_fault_label fs.spec));
  match fs.spec.Fault.kind with
  | Fault.Ingest_stall s -> interruptible_sleep t s
  | Fault.Shard_crash ->
      raise (Fault.Injected_shard_crash { shard = t.shard_id })
  | Fault.Checkpoint_write_failure -> t.ckpt_fail_pending <- true
  | Fault.Slow_consumer s -> fs.slow_until <- Clock.now () +. s
  | Fault.Torn_write ->
      (* suspend compaction so the damage survives to the next start *)
      t.compaction_suspended <- true;
      tear_log_tail t
  | Fault.Bit_flip ->
      t.compaction_suspended <- true;
      flip_bit_in_log t
  | Fault.Overload rps -> t.overload_rps <- rps

let check_faults t =
  let now = Clock.now () in
  List.iter
    (fun fs ->
      if (not fs.fired) && now -. t.started_at >= fs.spec.Fault.after then
        fire_fault t fs)
    t.faults

let in_slow_window t =
  let now = Clock.now () in
  List.exists (fun fs -> fs.slow_until > now) t.faults

(* ------------------------------------------------------------------ *)
(* Checkpointing                                                       *)
(* ------------------------------------------------------------------ *)

let snapshot_of_state t =
  Mutex.protect t.mutex (fun () ->
      let tenants =
        Hashtbl.fold
          (fun _ ts acc ->
            match ts.post with
            | None -> acc
            | Some p ->
                {
                  Ckpt.tenant = p.tenant;
                  rates = Array.copy p.params.Params.rates;
                  arrival_queue = p.params.Params.arrival_queue;
                  mean_service = Array.copy p.mean_service;
                  iteration = p.iteration;
                  round = p.round;
                  num_events = p.num_events;
                }
                :: acc)
          t.tenant_tbl []
        |> List.sort (fun a b -> String.compare a.Ckpt.tenant b.Ckpt.tenant)
      in
      {
        Ckpt.iterations = t.iters;
        rounds = t.round_count;
        restarts = t.restart_count;
        tenants;
      })

(* Write [path] through [tmp]: [write] fills it, and it is closed, and
   so flushed, before it is renamed over [path]. A write that fails, at
   the final flush too, raises with [path] untouched and [tmp]
   removed. *)
let replace_file ~path ~tmp write =
  let oc = open_out tmp in
  match
    write oc;
    close_out oc
  with
  | () -> Sys.rename tmp path
  | exception e ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

(* Rewrite the event log as [windows], each tenant's buffered events
   newest first, and drop the rotated segment, which the windows
   supersede. The caller takes the windows under [t.mutex]; the lists
   are immutable, so they are rendered here without it. *)
let compact_log t windows =
  replace_file ~path:(log_path t) ~tmp:(log_path t ^ ".tmp") (fun oc ->
      List.iter
        (fun (tenant, events) ->
          List.iter
            (fun (e : Trace.event) ->
              output_string oc
                (Framed_log.frame
                   (Ingest.to_json_line
                      {
                        Ingest.tenant;
                        task = e.Trace.task;
                        state = e.Trace.state;
                        queue = e.Trace.queue;
                        arrival = e.Trace.arrival;
                        departure = e.Trace.departure;
                      }));
              output_char oc '\n')
            (List.rev events))
        windows);
  if Sys.file_exists (log1_path t) then Sys.remove (log1_path t);
  Mutex.protect t.mutex (fun () -> t.stale_lines <- 0);
  reopen_log t

let write_checkpoint ?(final = false) t =
  try
    if t.ckpt_fail_pending then begin
      t.ckpt_fail_pending <- false;
      raise (Sys_error "injected checkpoint write failure")
    end;
    let line = Ckpt.to_line (snapshot_of_state t) in
    replace_file ~path:(ckpt_path t) ~tmp:(ckpt_path t ^ ".tmp") (fun oc ->
        output_string oc (Framed_log.frame line);
        output_char oc '\n');
    (* Compact the event log to the buffer windows only when its stale
       lines outnumber its live ones (at a graceful stop, when any line
       is stale), or when it is missing lines because a failed append
       closed the channel, which compaction reopens. Replay then reads
       at most twice the windows, and a round whose tenants stay under
       the cap rewrites nothing. Skipped while a corruption fault is
       armed — compaction would silently erase the injected damage the
       next start must prove it survives. *)
    if not t.compaction_suspended then begin
      let missing = Option.is_none t.log_oc in
      let windows =
        Mutex.protect t.mutex (fun () ->
            let live = Hashtbl.fold (fun _ ts n -> n + ts.count) t.tenant_tbl 0 in
            if missing || t.stale_lines > (if final then 0 else live) then
              Some
                (Hashtbl.fold
                   (fun tenant ts acc -> (tenant, ts.events) :: acc)
                   t.tenant_tbl [])
            else None)
      in
      Option.iter (compact_log t) windows
    end;
    Metrics.Counter.inc (Lazy.force m_checkpoints)
  with Sys_error m ->
    Metrics.Counter.inc (Lazy.force m_checkpoint_failures);
    Mutex.protect t.mutex (fun () -> t.err <- Some m);
    Log.warn (fun f ->
        f "shard %d: checkpoint write failed (will retry next round): %s"
          t.shard_id m)

(* ------------------------------------------------------------------ *)
(* Absorbing ingested records                                          *)
(* ------------------------------------------------------------------ *)

let absorb t items =
  if items <> [] then begin
    append_log t (List.map (fun it -> it.record) items);
    let absorbed_at = Clock.elapsed () in
    let cap = t.cfg.max_tenant_events in
    Mutex.protect t.mutex (fun () ->
        (* tenants past the buffer cap, each listed once as it crosses *)
        let over = ref [] in
        List.iter
          (fun it ->
            let r = it.record in
            let ts =
              match Hashtbl.find_opt t.tenant_tbl r.Ingest.tenant with
              | Some ts -> ts
              | None ->
                  let ts =
                    {
                      events = [];
                      count = 0;
                      since_fit = 0;
                      post = None;
                      pending_traces = [];
                    }
                  in
                  Hashtbl.add t.tenant_tbl r.Ingest.tenant ts;
                  ts
            in
            ts.events <- Ingest.to_trace_event r :: ts.events;
            ts.count <- ts.count + 1;
            ts.since_fit <- ts.since_fit + 1;
            if ts.count = cap + 1 then over := ts :: !over;
            if not (Float.is_nan it.enqueued_at) then begin
              let wait = Float.max 0.0 (absorbed_at -. it.enqueued_at) in
              Fleet.record Fleet.Queue_wait ~tenant:r.Ingest.tenant wait;
              match it.trace with
              | None -> ()
              | Some ctx ->
                  Span.emit
                    ~attrs:
                      [
                        ("trace", Trace_ctx.id_hex ctx);
                        ("tenant", r.Ingest.tenant);
                        ("shard", string_of_int t.shard_id);
                      ]
                    ~start:it.enqueued_at ~duration:wait "serve.queue_wait";
                  if List.length ts.pending_traces < max_pending_traces then
                    ts.pending_traces <- ctx :: ts.pending_traces
            end)
          items;
        (* drop the oldest tail once per batch; the lenient rebuild
           re-repairs the truncated window at the next fit *)
        List.iter
          (fun ts ->
            ts.events <- List.filteri (fun i _ -> i < cap) ts.events;
            t.stale_lines <- t.stale_lines + ts.count - cap;
            ts.count <- cap)
          !over)
  end

(* ------------------------------------------------------------------ *)
(* Fitting                                                             *)
(* ------------------------------------------------------------------ *)

let fit_seed t tenant =
  (* distinct, reproducible stream per (daemon seed, shard, tenant,
     round); collisions are harmless (independent data) *)
  t.cfg.seed
  + (104729 * (t.shard_id + 1))
  + (31 * Mutex.protect t.mutex (fun () -> t.round_count))
  + (Router.fnv1a tenant mod 1_000_003)

(* One refit of [tenant]'s buffered window on [rung]. The window is
   repaired (repair drops are counted, never fatal), masked, and fitted
   warm-started from the previous posterior: supervised multi-chain StEM
   on [Full_fits]; on [Incremental] the cheap rung, a short windowed
   Online_stem run with bounded memory and a fraction of the sweeps,
   right for a hot tenant or a shard that blew its deadline budget. A
   pinned shard runs no fits. *)
let fit_tenant t tenant rung =
  let events, prev_post =
    Mutex.protect t.mutex (fun () ->
        match Hashtbl.find_opt t.tenant_tbl tenant with
        | None -> ([], None)
        | Some ts -> (List.rev ts.events, ts.post))
  in
  let fail m =
    Metrics.Counter.inc (Lazy.force m_fit_failures);
    Mutex.protect t.mutex (fun () ->
        t.err <- Some (Printf.sprintf "tenant %s: %s" tenant m))
  in
  if events <> [] then
    match Trace.of_events_lenient ~num_queues:t.cfg.num_queues events with
    | Error _report -> fail "no usable events"
    | Ok (trace, report) ->
        if report.Trace.events_dropped > 0 then
          Metrics.Counter.inc
            ~by:(float_of_int report.Trace.events_dropped)
            (Lazy.force m_repair_dropped);
        if trace.Trace.num_tasks >= 2 then begin
          let seed = fit_seed t tenant in
          let rng = Rng.create ~seed () in
          let mask = Obs.mask rng (Obs.Task_fraction obs_fraction) trace in
          let init =
            match prev_post with
            | Some p when Params.num_queues p.params = t.cfg.num_queues -> Some p.params
            | _ -> None
          in
          (* [None] keeps the old posterior; [Failure] is a failed fit *)
          let fit () =
            match rung with
            | Full_fits ->
                let config =
                  {
                    Supervisor.default_config with
                    Supervisor.chains = t.cfg.chains;
                    min_chains = Stdlib.min t.cfg.min_chains t.cfg.chains;
                    stem =
                      {
                        Stem.default_config with
                        Stem.iterations = t.cfg.fit_iterations;
                        burn_in = t.cfg.fit_iterations / 2;
                      };
                    round_iterations = Stdlib.max 5 (t.cfg.fit_iterations / 4);
                    max_restarts = 1;
                  }
                in
                let r =
                  Supervisor.run ~config ?init ~seed (fun () ->
                      Store.of_trace ~observed:mask trace)
                in
                if r.Supervisor.status = Supervisor.Failed then
                  failwith "fit had no healthy chain";
                let done_ =
                  Array.fold_left
                    (fun acc v -> Stdlib.max acc v.Supervisor.iterations_done)
                    0 r.Supervisor.verdicts
                in
                Some (r.Supervisor.params, r.Supervisor.mean_service, Stdlib.max 1 done_)
            | Incremental | Pinned -> (
                let iterations = Stdlib.max 4 (t.cfg.fit_iterations / 2) in
                let config = { Online.num_windows = 2; iterations; min_tasks = 2 } in
                match Online.run ~config ?init rng trace ~mask with
                | [] -> None (* every window under min_tasks *)
                | steps ->
                    Metrics.Counter.inc (Lazy.force m_incremental_fits);
                    let last = List.nth steps (List.length steps - 1) in
                    Some
                      ( last.Online.params,
                        last.Online.mean_service,
                        iterations * List.length steps ))
          in
          match fit () with
          | exception (Invalid_argument m | Failure m) -> fail m
          | None -> ()
          | Some (params, mean_service, iterations_done) ->
              Metrics.Counter.inc (Lazy.force m_fits);
              Mutex.protect t.mutex (fun () ->
                  t.iters <- t.iters + iterations_done;
                  (* leave Starting as the posterior appears: no reader
                     may see a fresh posterior on a shard not yet
                     healthy *)
                  (match t.st with Starting -> t.st <- Healthy | _ -> ());
                  match Hashtbl.find_opt t.tenant_tbl tenant with
                  | None -> ()
                  | Some ts ->
                      ts.since_fit <- 0;
                      ts.post <-
                        Some
                          {
                            tenant;
                            params;
                            mean_service;
                            iteration = t.iters;
                            round = t.round_count;
                            num_events = Array.length trace.Trace.events;
                            from_checkpoint = false;
                            fitted_at = Clock.now ();
                            fit_mode = level_label rung;
                          });
              Metrics.Gauge.set t.iter_gauge (float_of_int (iterations t))
        end

let tenant_hot t tenant =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.tenant_tbl tenant with
      | None -> false
      | Some ts -> ts.since_fit >= hot_tenant_events)

let due_tenants t =
  let now = Clock.now () in
  let interval_elapsed = now -. t.last_fit_scan >= t.cfg.refit_interval in
  Mutex.protect t.mutex (fun () ->
      Hashtbl.fold
        (fun tenant ts acc ->
          if
            ts.count >= t.cfg.min_tenant_events
            && (ts.since_fit >= t.cfg.refit_events
               || (interval_elapsed && ts.since_fit > 0))
          then tenant :: acc
          else acc)
        t.tenant_tbl [])
  |> List.sort String.compare

(* Reassess the shard's rung on the ladder. [round_seconds] is the
   wall time of a just-finished fit round ([None] for idle ticks, which
   only drive promotion and breaker pinning). Demotion is immediate —
   one blown deadline or a hot queue is evidence enough — but
   promotion needs [promote_rounds] consecutive clean evaluations, so
   a shard teetering at the boundary doesn't flap. *)
let evaluate_ladder t ?round_seconds () =
  let now = Clock.now () in
  t.last_ladder_eval <- now;
  let blew =
    match round_seconds with
    | Some s -> s > t.cfg.fit_deadline
    | None -> false
  in
  let pressure =
    float_of_int (queue_depth t)
    /. float_of_int (Stdlib.max 1 t.cfg.queue_capacity)
  in
  Mutex.protect t.mutex (fun () ->
      (match round_seconds with
      | Some _ -> t.miss_streak <- (if blew then t.miss_streak + 1 else 0)
      | None -> ());
      let breaker_open = now < t.pinned_until in
      let demote target reason =
        if level_rank target > level_rank t.lvl then begin
          t.lvl <- target;
          t.lvl_reason <- Some reason;
          t.clean_streak <- 0;
          Metrics.Counter.inc (Lazy.force m_demotions);
          publish_level t;
          Log.warn (fun f ->
              f "shard %d: degraded to %s: %s" t.shard_id (level_label target)
                reason)
        end
      in
      if breaker_open then
        demote Pinned
          (Printf.sprintf "restart circuit breaker open (%d restarts within %.3gs)"
             (List.length t.restart_stamps) breaker_window)
      else if blew && t.miss_streak >= 2 then
        demote Pinned
          (Printf.sprintf
             "refit deadline budget blown %d rounds running (last %.3gs > %.3gs)"
             t.miss_streak
             (Option.value ~default:0.0 round_seconds)
             t.cfg.fit_deadline)
      else if blew then
        demote Incremental
          (Printf.sprintf "refit round took %.3gs > %.3gs deadline budget"
             (Option.value ~default:0.0 round_seconds)
             t.cfg.fit_deadline)
      else if pressure >= t.cfg.hot_watermark then
        demote Incremental
          (Printf.sprintf "ingest queue %.0f%% full" (100.0 *. pressure));
      let clean =
        (not blew) && (not breaker_open) && pressure <= t.cfg.cool_watermark
      in
      match t.lvl with
      | Full_fits -> if not clean then t.clean_streak <- 0
      | Incremental | Pinned ->
          if clean then begin
            t.clean_streak <- t.clean_streak + 1;
            if t.clean_streak >= t.cfg.promote_rounds then begin
              t.clean_streak <- 0;
              let target =
                match t.lvl with Pinned -> Incremental | _ -> Full_fits
              in
              t.lvl <- target;
              t.lvl_reason <-
                (match target with
                | Full_fits -> None
                | _ -> Some "recovering: incremental refits only");
              Metrics.Counter.inc (Lazy.force m_promotions);
              publish_level t;
              Log.info (fun f ->
                  f "shard %d: promoted to %s" t.shard_id (level_label target))
            end
          end
          else t.clean_streak <- 0)

let run_fit_round t due =
  Mutex.protect t.mutex (fun () -> t.round_count <- t.round_count + 1);
  let t0 = Clock.now () in
  let before_failures = Metrics.Counter.value (Lazy.force m_fit_failures) in
  let lvl = level t in
  List.iter
    (fun tenant ->
      let rung =
        match lvl with
        | Full_fits when tenant_hot t tenant -> Incremental
        | lvl -> lvl
      in
      if rung <> Pinned then begin
        let f0 = Clock.elapsed () in
        fit_tenant t tenant rung;
        let f1 = Clock.elapsed () in
        let dt = Float.max 0.0 (f1 -. f0) in
        Fleet.record Fleet.Refit ~tenant dt;
        (* traced requests waiting on this tenant close out their
           refit and end-to-end phases here *)
        let pending =
          Mutex.protect t.mutex (fun () ->
              match Hashtbl.find_opt t.tenant_tbl tenant with
              | None -> []
              | Some ts ->
                  let p = ts.pending_traces in
                  ts.pending_traces <- [];
                  p)
        in
        List.iter
          (fun ctx ->
            let base =
              [
                ("trace", Trace_ctx.id_hex ctx);
                ("tenant", tenant);
                ("shard", string_of_int t.shard_id);
              ]
            in
            Span.emit
              ~attrs:(("mode", level_label rung) :: base)
              ~start:f0 ~duration:dt "serve.refit";
            Span.emit ~attrs:base ~start:ctx.Trace_ctx.born
              ~duration:(Float.max 0.0 (f1 -. ctx.Trace_ctx.born))
              "serve.e2e")
          pending
      end)
    due;
  let after_failures = Metrics.Counter.value (Lazy.force m_fit_failures) in
  t.last_fit_scan <- Clock.now ();
  write_checkpoint t;
  Mutex.protect t.mutex (fun () ->
      if after_failures > before_failures then
        t.st <-
          Degraded
            (match t.err with Some m -> m | None -> "fit failures this round")
      else begin
        t.st <- Healthy;
        t.err <- None
      end);
  evaluate_ladder t ~round_seconds:(Clock.now () -. t0) ()

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)
(* ------------------------------------------------------------------ *)

let worker_pass t =
  check_faults t;
  let slow = in_slow_window t in
  let now = Clock.now () in
  (* overload fault: drain at most overload_rps events/s, paid from a
     token bucket with a one-second burst allowance *)
  let allowed =
    if t.overload_rps > 0.0 then begin
      let dt = Float.max 0.0 (now -. t.last_pass) in
      t.overload_debt <-
        Float.min t.overload_rps (t.overload_debt +. (t.overload_rps *. dt));
      let k = int_of_float t.overload_debt in
      t.overload_debt <- t.overload_debt -. float_of_int k;
      Some k
    end
    else None
  in
  t.last_pass <- now;
  let batch =
    match allowed with
    | Some 0 ->
        Thread.delay t.cfg.poll_interval;
        []
    | Some k ->
        Bounded_queue.pop_batch
          ~max:(Stdlib.min k (if slow then 1 else 256))
          ~timeout:t.cfg.poll_interval t.ingest_queue
    | None ->
        Bounded_queue.pop_batch
          ~max:(if slow then 1 else 256)
          ~timeout:t.cfg.poll_interval t.ingest_queue
  in
  if slow then Thread.delay 0.02;
  absorb t batch;
  (match batch with
  | [] -> ()
  | _ :: _ ->
      let drained_at = Clock.now () in
      let dt = Float.max 1e-3 (drained_at -. t.last_drain) in
      let inst = float_of_int (List.length batch) /. dt in
      t.drain_ewma <-
        (if t.drain_ewma <= 0.0 then inst
         else (0.2 *. inst) +. (0.8 *. t.drain_ewma));
      t.last_drain <- drained_at);
  Metrics.Gauge.set t.depth_gauge (float_of_int (queue_depth t));
  (match due_tenants t with
  | [] ->
      if
        Mutex.protect t.mutex (fun () ->
            match t.st with Starting -> true | _ -> false)
      then Mutex.protect t.mutex (fun () -> t.st <- Healthy)
  | due ->
      if
        Mutex.protect t.mutex (fun () ->
            match t.lvl with Pinned -> true | _ -> false)
      then begin
        (* pinned: stale serve only — no fits, but keep counters and
           checkpoints fresh so a restart never loses ground *)
        if Clock.now () -. t.last_fit_scan >= t.cfg.refit_interval then begin
          t.last_fit_scan <- Clock.now ();
          write_checkpoint t
        end
      end
      else run_fit_round t due);
  (* idle ladder ticks drive promotion hysteresis (and breaker
     pinning) even when no fit round runs *)
  if
    Mutex.protect t.mutex (fun () ->
        match t.lvl with Full_fits -> false | Incremental | Pinned -> true)
    && Clock.now () -. t.last_ladder_eval >= t.cfg.refit_interval
  then evaluate_ladder t ()

let final_drain t =
  let rec go () =
    match Bounded_queue.pop_batch ~max:4096 ~timeout:0.0 t.ingest_queue with
    | [] -> ()
    | batch ->
        absorb t batch;
        go ()
  in
  go ();
  write_checkpoint ~final:true t

let rec supervise t =
  match
    while not (Atomic.get t.stopping) do
      worker_pass t
    done
  with
  | () -> final_drain t
  | exception e ->
      let msg = Printexc.to_string e in
      let attempt = Mutex.protect t.mutex (fun () -> t.restart_count + 1) in
      if attempt > t.cfg.max_restarts then begin
        Mutex.protect t.mutex (fun () ->
            t.st <- Failed msg;
            t.err <- Some msg);
        Log.err (fun f ->
            f "shard %d: %s; restart budget (%d) exhausted — failed (posteriors \
               stay servable)"
              t.shard_id msg t.cfg.max_restarts);
        (* keep draining nothing; just wait for stop so posteriors
           remain servable and stop remains graceful *)
        while not (Atomic.get t.stopping) do
          Thread.delay 0.05
        done
      end
      else begin
        Metrics.Counter.inc (Lazy.force m_restarts);
        let now = Clock.now () in
        Mutex.protect t.mutex (fun () ->
            t.restart_count <- attempt;
            t.st <- Restarting attempt;
            t.err <- Some msg;
            (* restart circuit breaker: repeated crashes within the
               window pin the shard to stale serve for a cooldown —
               restarting is cheap, re-crashing mid-fit forever is
               not *)
            t.restart_stamps <-
              now
              :: List.filter
                   (fun s -> now -. s <= breaker_window)
                   t.restart_stamps;
            if List.length t.restart_stamps >= t.cfg.breaker_restarts then begin
              if now >= t.pinned_until then
                Metrics.Counter.inc (Lazy.force m_breaker_trips);
              t.pinned_until <- now +. t.cfg.breaker_cooldown;
              let reason =
                Printf.sprintf
                  "restart circuit breaker open (%d restarts within %.3gs)"
                  (List.length t.restart_stamps) breaker_window
              in
              t.lvl_reason <- Some reason;
              if level_rank Pinned > level_rank t.lvl then begin
                t.lvl <- Pinned;
                t.clean_streak <- 0;
                Metrics.Counter.inc (Lazy.force m_demotions);
                publish_level t;
                Log.warn (fun f ->
                    f "shard %d: degraded to pinned: %s" t.shard_id reason)
              end
            end);
        let delay = backoff ~base:backoff_base ~max_:backoff_max attempt in
        Log.warn (fun f ->
            f "shard %d: %s; restarting in %.3gs (attempt %d/%d)" t.shard_id msg
              delay attempt t.cfg.max_restarts);
        interruptible_sleep t delay;
        Mutex.protect t.mutex (fun () -> t.st <- Healthy);
        supervise t
      end

(* ------------------------------------------------------------------ *)
(* Resume                                                              *)
(* ------------------------------------------------------------------ *)

let quarantine_frame t ~line ~reason =
  Mutex.protect t.mutex (fun () -> t.corrupt_frames <- t.corrupt_frames + 1);
  Metrics.Counter.inc (Lazy.force m_log_corrupt);
  Ingest.Dead_letter.write t.quarantine ~line ~reason

(* Replay one durable-log segment through the frame validator:
   payloads are absorbed, corrupt frames quarantined exactly, and a
   torn tail truncated back to the last record boundary. *)
let replay_segment t path =
  if not (Sys.file_exists path) then ()
  else begin
    (* newest first; absorbed as one batch, so the buffer cap trims once *)
    let replayed = ref [] in
    let quarantined = ref 0 in
    let quarantine ~line ~reason =
      incr quarantined;
      quarantine_frame t ~line ~reason
    in
    let result =
      Framed_log.replay_file ~path
        ~on_payload:(fun payload ->
          match Ingest.decode_line ~num_queues:t.cfg.num_queues payload with
          | Ok r ->
              replayed := { record = r; trace = None; enqueued_at = Float.nan } :: !replayed
          | Error reason -> quarantine ~line:payload ~reason)
        ~on_corrupt:quarantine
        ()
    in
    absorb t (List.rev !replayed);
    Mutex.protect t.mutex (fun () ->
        t.replayed_events <- t.replayed_events + List.length !replayed;
        t.stale_lines <- t.stale_lines + !quarantined);
    match result with
    | Ok stats ->
        if stats.Framed_log.torn then begin
          Mutex.protect t.mutex (fun () -> t.torn_tails <- t.torn_tails + 1);
          Metrics.Counter.inc (Lazy.force m_log_torn);
          Log.warn (fun f ->
              f "shard %d: truncated torn tail of %s back to last valid frame"
                t.shard_id path)
        end
    | Error m ->
        Log.warn (fun f -> f "shard %d: cannot replay %s: %s" t.shard_id path m)
  end

let resume_from_disk t =
  let resumed_ckpt =
    match
      if Sys.file_exists (ckpt_path t) then
        let ic = open_in (ckpt_path t) in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> Some (input_line ic))
      else None
    with
    | None -> false
    | Some raw when
        (match Framed_log.parse raw with
        | Error (Framed_log.Corrupt _) -> true
        | Ok _ | Error Framed_log.Not_a_frame -> false) ->
        (match Framed_log.parse raw with
        | Error (Framed_log.Corrupt reason) ->
            quarantine_frame t ~line:raw ~reason;
            Log.warn (fun f ->
                f "shard %d: checkpoint frame corrupt (%s); starting cold"
                  t.shard_id reason)
        | Ok _ | Error Framed_log.Not_a_frame -> ());
        false
    | Some raw -> (
        (* a valid frame carries the checkpoint JSON; an unframed line
           is a legacy checkpoint, still honored *)
        let line =
          match Framed_log.parse raw with Ok payload -> payload | Error _ -> raw
        in
        match Ckpt.of_line line with
        | Error m ->
            Log.warn (fun f ->
                f "shard %d: ignoring unreadable checkpoint: %s" t.shard_id m);
            false
        | Ok snap ->
            Mutex.protect t.mutex (fun () ->
                t.iters <- snap.Ckpt.iterations;
                t.round_count <- snap.Ckpt.rounds;
                List.iter
                  (fun (e : Ckpt.tenant_entry) ->
                    match
                      Params.create ~rates:e.Ckpt.rates
                        ~arrival_queue:e.Ckpt.arrival_queue
                    with
                    | params ->
                        Hashtbl.replace t.tenant_tbl e.Ckpt.tenant
                          {
                            events = [];
                            count = 0;
                            since_fit = 0;
                            post =
                              Some
                                {
                                  tenant = e.Ckpt.tenant;
                                  params;
                                  mean_service = e.Ckpt.mean_service;
                                  iteration = e.Ckpt.iteration;
                                  round = e.Ckpt.round;
                                  num_events = e.Ckpt.num_events;
                                  from_checkpoint = true;
                                  fitted_at = 0.0;
                                  fit_mode = "checkpoint";
                                };
                            pending_traces = [];
                          }
                    | exception Invalid_argument m ->
                        Log.warn (fun f ->
                            f "shard %d: dropping tenant %s from checkpoint: %s"
                              t.shard_id e.Ckpt.tenant m))
                  snap.Ckpt.tenants);
            true)
    | exception Sys_error m ->
        Log.warn (fun f ->
            f "shard %d: cannot read checkpoint: %s" t.shard_id m);
        false
    | exception End_of_file -> false
  in
  (* rotated segment first, then the active one: replay order is
     append order *)
  replay_segment t (log1_path t);
  replay_segment t (log_path t);
  let replayed = replayed_events t in
  (* replay inflates since_fit; a fresh fit soon after resume is the
     desired behavior, so leave it — but don't count replay as new
     load for tenants that were already fitted to this window *)
  if resumed_ckpt || replayed > 0 || log_corrupt_frames t > 0 || log_torn_tails t > 0
  then begin
    t.was_resumed <- true;
    Metrics.Counter.inc (Lazy.force m_resumes);
    Log.info (fun f ->
        f "shard %d: resumed from checkpoint (iterations=%d, rounds=%d, %d \
           events replayed, %d corrupt frames quarantined, %d torn tails \
           truncated)"
          t.shard_id t.iters t.round_count replayed (log_corrupt_frames t)
          (log_torn_tails t))
  end

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let validate cfg =
  if cfg.num_queues < 2 then Error "num_queues must be >= 2"
  else if cfg.queue_capacity < 1 then Error "queue_capacity must be >= 1"
  else if cfg.max_tenant_events < cfg.min_tenant_events then
    Error "max_tenant_events must be >= min_tenant_events"
  else if cfg.chains < 1 then Error "chains must be >= 1"
  else if cfg.fit_iterations < 2 then Error "fit_iterations must be >= 2"
  else if cfg.fit_deadline <= 0.0 then Error "fit_deadline must be > 0"
  else if cfg.breaker_restarts < 1 then Error "breaker_restarts must be >= 1"
  else if cfg.breaker_cooldown < 0.0 then Error "breaker_cooldown must be >= 0"
  else if cfg.promote_rounds < 1 then Error "promote_rounds must be >= 1"
  else if
    cfg.hot_watermark <= cfg.cool_watermark
    || cfg.cool_watermark < 0.0 || cfg.hot_watermark > 1.0
  then Error "hot_watermark/cool_watermark malformed"
  else if cfg.max_log_bytes < 4096 then Error "max_log_bytes must be >= 4096"
  else Ok ()

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let create ?(faults = []) ?started_at ~dir ~id:shard_id cfg =
  match validate cfg with
  | Error m -> Error (Printf.sprintf "shard %d: %s" shard_id m)
  | Ok () -> (
      match
        mkdir_p dir;
        if not (Sys.is_directory dir) then
          Error (Printf.sprintf "shard %d: %s is not a directory" shard_id dir)
        else Ok ()
      with
      | exception Sys_error m -> Error (Printf.sprintf "shard %d: %s" shard_id m)
      | Error m -> Error m
      | Ok () ->
          let started_at =
            match started_at with Some x -> x | None -> Clock.now ()
          in
          let shard_label = [ ("shard", string_of_int shard_id) ] in
          let t =
            {
              shard_id;
              cfg;
              dir;
              ingest_queue = Bounded_queue.create ~capacity:cfg.queue_capacity;
              mutex = Mutex.create ();
              tenant_tbl = Hashtbl.create 16;
              st = Starting;
              iters = 0;
              round_count = 0;
              restart_count = 0;
              was_resumed = false;
              err = None;
              last_fit_scan = Clock.now ();
              log_oc = None;
              ckpt_fail_pending = false;
              stopping = Atomic.make false;
              worker = None;
              lvl = Full_fits;
              lvl_reason = None;
              miss_streak = 0;
              clean_streak = 0;
              restart_stamps = [];
              pinned_until = 0.0;
              last_ladder_eval = started_at;
              drain_ewma = 0.0;
              last_drain = started_at;
              last_pass = started_at;
              overload_rps = 0.0;
              overload_debt = 0.0;
              compaction_suspended = false;
              stale_lines = 0;
              corrupt_frames = 0;
              torn_tails = 0;
              replayed_events = 0;
              quarantine =
                (match Ingest.Dead_letter.open_ ~path:(quarantine_path dir) with
                | Ok q -> q
                | Error m ->
                    Log.warn (fun f ->
                        f "shard %d: quarantine file unavailable (%s); \
                           counting only"
                          shard_id m);
                    Ingest.Dead_letter.null ());
              faults =
                List.filter_map
                  (fun (f : Fault.service_fault) ->
                    if f.Fault.shard = shard_id then
                      Some { spec = f; fired = false; slow_until = 0.0 }
                    else None)
                  faults;
              started_at;
              depth_gauge =
                Metrics.Gauge.create ~labels:shard_label
                  ~help:"Current ingest queue depth" "qnet_serve_queue_depth";
              iter_gauge =
                Metrics.Gauge.create ~labels:shard_label
                  ~help:"Cumulative StEM iterations fitted by this shard"
                  "qnet_serve_shard_iterations";
              level_gauge =
                Metrics.Gauge.create ~labels:shard_label
                  ~help:
                    "Shard degradation-ladder level (0 full, 1 incremental, \
                     2 pinned)"
                  "qnet_serve_degrade_level";
            }
          in
          Mutex.protect t.mutex (fun () -> publish_level t);
          resume_from_disk t;
          Metrics.Gauge.set t.iter_gauge (float_of_int t.iters);
          reopen_log t;
          t.worker <- Some (Thread.create (fun () -> supervise t) ());
          Ok t)

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Bounded_queue.close t.ingest_queue;
    (match t.worker with None -> () | Some th -> Thread.join th);
    (match t.log_oc with
    | Some oc ->
        close_out_noerr oc;
        t.log_oc <- None
    | None -> ());
    Ingest.Dead_letter.close t.quarantine
  end
