(* The serve-replay workload: the real qnet_serve binary, run with its
   defaults in a fresh data directory, under the stream qnet_replay
   sends with its defaults but at half its speed: the tandem (lambda
   10, mu 5) trace through Qnet_des.Replay.plan at speedup 10 over four
   tenants, in 50-line batches, each due when its first line is. One
   connection at a time:
   an open-loop generator POSTs every batch when it is due, and each
   POST is followed by one GET /tenants/:id/posterior.json, so reads run
   beside writes. Ingest latency is timed from when the batch was due.

   The stream ends with refresh flushes: once every tenant's posterior
   covers everything sent, one batch carrying more than the daemon's
   refit_events (120) fresh events per tenant is posted, and the time
   until every tenant's served posterior was fitted on data including
   it is one refresh-lag sample. The flush makes every tenant due at
   once, so the lag measures absorb + refit + publish rather than the
   refit_interval timer's phase. *)

module Rng = Qnet_prob.Rng
module Trace = Qnet_trace.Trace
module Network = Qnet_des.Network
module Topologies = Qnet_des.Topologies
module Replay = Qnet_des.Replay
module Ingest = Qnet_serve.Ingest
module Store = Qnet_core.Event_store
module Stem = Qnet_core.Stem
module Obs = Qnet_core.Observation
module Supervisor = Qnet_runtime.Supervisor

let daemon_exe = Filename.concat "_build" "default/bin/qnet_serve.exe"
let scratch_dir = "_perfbench"
let tenants = 4

type shape = {
  speedup : float;  (** qnet_replay --speedup *)
  batch : int;  (** qnet_replay --batch: lines per POST *)
  flushes : int;  (** refresh-lag samples *)
  flush_per_tenant : int;  (** fresh events per tenant in a flush *)
  spawns : int;  (** set-up samples (daemon starts) *)
  max_tenant_lines : int;  (** stay under the daemon's 4000-event tenant cap *)
}

(* qnet_replay's stream at half its default speed (20). At speed 20 the
   two shards each refit about 42% of the time, two chain domains per
   refit: 84% of a two-core host, where refit contention decides even
   the median HTTP latency. At half speed the refits take about 42%, and
   the daemon answers no 429 and thins nothing at either speed. *)
let shape ~tiny =
  let full =
    { speedup = 10.0; batch = 50; flushes = 9; flush_per_tenant = 124; spawns = 11;
      max_tenant_lines = 3900 }
  in
  if tiny then { full with flushes = 1; spawns = 2 } else full

type line = { text : string; tenant : string }

type input = {
  stream : (float * line array) array;
      (** open-loop batches with their due offsets; batch 0 ends set-up *)
  flush_batches : line array list;
  true_service : (string * float array) list;
      (** per tenant: realized mean service per queue of its own events,
          the data its posterior is fitted on *)
  all_lines : string array;
}

let tenant_names = List.init tenants (fun k -> Replay.tenant_key ~tenants k)

(* Simulate the tandem, plan the replay, and keep the part of it that is
   due in the first [seconds] as the stream. After it, the next
   [flushes * flush_per_tenant] events of every tenant, in plan order,
   are held back for the flushes. Every line is sent, so each tenant's
   events stay a gap-free replay prefix that the daemon's lenient
   rebuild keeps whole. Only events completing before the last arrival
   are used: any longer simulation has the same ones, so the prefix is
   the one qnet_replay would send. A flush must not exceed the 256 items
   a shard worker pops per pass (two tenants per shard here), or part of
   it would wait for the refit_interval timer. *)
let generate ~seed ~seconds sh =
  let held = sh.flushes * sh.flush_per_tenant in
  (* simulated seconds to cover: the stream, then the flushes at the
     10 departures per second the two stations sustain *)
  let horizon = (seconds *. sh.speedup) +. (float_of_int (tenants * held) /. 10.0) in
  let net = Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 5.0; 5.0 ] in
  let trace =
    Network.simulate_poisson (Rng.create ~seed ()) net
      ~num_tasks:(int_of_float (10.0 *. horizon) + 1)
  in
  let first = ref infinity and last_arrival = ref neg_infinity in
  Array.iter
    (fun (e : Trace.event) ->
      first := Float.min !first e.Trace.departure;
      if e.Trace.queue = 0 then last_arrival := Float.max !last_arrival e.Trace.departure)
    trace.Trace.events;
  let complete_until = (!last_arrival -. !first) /. sh.speedup in
  let items =
    Replay.plan ~speedup:sh.speedup ~tenants trace
    |> List.filter (fun it -> it.Replay.at < complete_until)
    |> List.map (fun it ->
           match Ingest.decode_line ~num_queues:3 it.Replay.line with
           | Ok r -> (it.Replay.at, { text = it.Replay.line; tenant = r.Ingest.tenant })
           | Error m -> failwith ("replay line does not decode: " ^ m))
    |> Array.of_list
  in
  let bump tbl t =
    let k = Option.value ~default:0 (Hashtbl.find_opt tbl t) in
    Hashtbl.replace tbl t (k + 1);
    k
  in
  (* the stream: the plan's prefix due within [seconds], cut short should
     a tenant reach the cap less its flush events *)
  let sent = Hashtbl.create 8 in
  let n_stream = ref 0 in
  while
    !n_stream < Array.length items
    && fst items.(!n_stream) < seconds
    && Option.value ~default:0 (Hashtbl.find_opt sent (snd items.(!n_stream)).tenant)
       < sh.max_tenant_lines - held
  do
    ignore (bump sent (snd items.(!n_stream)).tenant);
    incr n_stream
  done;
  let flushes = Array.make sh.flushes [] and seen = Hashtbl.create 8 in
  for i = !n_stream to Array.length items - 1 do
    let l = snd items.(i) in
    let k = bump seen l.tenant in
    if k < held then
      let f = k / sh.flush_per_tenant in
      flushes.(f) <- l :: flushes.(f)
  done;
  if Hashtbl.length seen < tenants || Hashtbl.fold (fun _ k acc -> acc || k < held) seen false
  then failwith "serve-replay: the simulation is too short for the flushes";
  let n = !n_stream in
  let stream =
    Array.init ((n + sh.batch - 1) / sh.batch) (fun b ->
        let s = b * sh.batch in
        (fst items.(s), Array.map snd (Array.sub items s (Stdlib.min sh.batch (n - s)))))
  in
  let flush_batches = Array.to_list (Array.map (fun f -> Array.of_list (List.rev f)) flushes) in
  let true_service =
    List.map
      (fun t ->
        let own =
          Array.to_list trace.Trace.events
          |> List.filter (fun (e : Trace.event) ->
                 Replay.tenant_key ~tenants e.Trace.task = t)
        in
        let sub = Trace.create ~num_queues:trace.Trace.num_queues own in
        (t, Array.init sub.Trace.num_queues (fun q -> Util.mean (Trace.service_times sub q))))
      tenant_names
  in
  {
    stream;
    flush_batches;
    true_service;
    all_lines =
      Array.concat (Array.to_list (Array.map snd stream) @ flush_batches)
      |> Array.map (fun l -> l.text);
  }

(* ------------------------------------------------------------------ *)
(* The daemon process                                                  *)
(* ------------------------------------------------------------------ *)

type daemon = {
  pid : int;
  port : int;
  dir : string;
  log : Buffer.t;  (** the daemon's stderr, complete once [stop] returns *)
  drain : Thread.t;
}

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))

let read_chunk fd buf =
  let b = Bytes.create 4096 in
  match Unix.read fd b 0 (Bytes.length b) with
  | n ->
      Buffer.add_subbytes buf b 0 n;
      n
  | exception Unix.Unix_error _ -> 0

(* Start qnet_serve on an ephemeral port and block on its stderr until
   it announces the port; a thread then drains the rest of stderr. *)
let spawn dir =
  Util.rm_rf dir;
  Util.mkdir_p dir;
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close w; Unix.close null)
      (fun () ->
        Unix.create_process daemon_exe
          (* --run-seconds only bounds the daemon's life should this
             process die without stopping it *)
          [| daemon_exe; "--port"; "0"; "--data-dir"; dir; "--run-seconds"; "170" |]
          null null w)
  in
  let log = Buffer.create 256 in
  let marker = "listening on http://127.0.0.1:" in
  let give_up why =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    ignore (Unix.waitpid [] pid);
    Unix.close r;
    failwith (why ^ ": " ^ Buffer.contents log)
  in
  let rec wait_port () =
    let text = Buffer.contents log in
    let port =
      match Util.find_after text marker with
      | None -> None
      | Some i ->
          let j = ref i in
          while !j < String.length text && text.[!j] >= '0' && text.[!j] <= '9' do
            incr j
          done;
          if !j < String.length text then int_of_string_opt (String.sub text i (!j - i))
          else None
    in
    match port with
    | Some p -> p
    | None -> (
        match Unix.select [ r ] [] [] 60.0 with
        | [], _, _ -> give_up "qnet_serve never announced its port"
        | _ ->
            if read_chunk r log = 0 then give_up "qnet_serve exited during start-up";
            wait_port ())
  in
  let port = wait_port () in
  let drain =
    Thread.create
      (fun () ->
        while read_chunk r log > 0 do
          ()
        done;
        Unix.close r)
      ()
  in
  { pid; port; dir; log; drain }

(* SIGTERM (graceful drain + checkpoint), escalating to SIGKILL after
   30 s; returns true on a clean exit 0. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now () +. 30.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
        if Util.now () > deadline then begin
          (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] d.pid);
          false
        end
        else begin
          Unix.sleepf 0.01;
          reap ()
        end
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
  in
  let clean = reap () in
  Thread.join d.drain;
  clean

let cleanup d = Util.rm_rf d.dir

(* ------------------------------------------------------------------ *)
(* Load generation                                                     *)
(* ------------------------------------------------------------------ *)

type tally = {
  mutable offered : int;  (** lines POSTed *)
  mutable accepted : int;
  mutable refused : int;  (** quarantined + shed + sampled out + given up *)
  mutable sampled_out : int;
  mutable rejected_batches : int;  (** 429 answers *)
  mutable gets : int;
  mutable get_failures : int;
  mutable ingest_lat : float list;
  mutable posterior_lat : float list;
  mutable late : float list;
  mutable depth_max : float;
  sent_by_tenant : (string, int) Hashtbl.t;
}

let new_tally () =
  {
    offered = 0; accepted = 0; refused = 0; sampled_out = 0; rejected_batches = 0;
    gets = 0; get_failures = 0; ingest_lat = []; posterior_lat = []; late = [];
    depth_max = 0.0; sent_by_tenant = Hashtbl.create 8;
  }

let count r key = int_of_float (Option.value ~default:0.0 (Util.json_number r.Http.body key))

(* POST one batch, retrying a 429 up to [max_attempts] times after the
   daemon's Retry-After (or 50 ms); returns the completion time. *)
let max_attempts = 4

let post_batch d tally (batch : line array) =
  let body = String.concat "\n" (Array.to_list (Array.map (fun l -> l.text) batch)) ^ "\n" in
  let n = Array.length batch in
  tally.offered <- tally.offered + n;
  let rec attempt k =
    match
      Layer.time "http.ingest" (fun () ->
          Http.request ~port:d.port ~meth:"POST" ~path:"/ingest" ~body ())
    with
    | Ok ({ Http.code = 200; _ } as r) ->
        let accepted = count r "accepted" in
        tally.accepted <- tally.accepted + accepted;
        tally.sampled_out <- tally.sampled_out + count r "sampled_out";
        tally.refused <- tally.refused + (n - accepted);
        if accepted = n then
          Array.iter
            (fun l ->
              Hashtbl.replace tally.sent_by_tenant l.tenant
                (1 + Option.value ~default:0 (Hashtbl.find_opt tally.sent_by_tenant l.tenant)))
            batch
    | Ok ({ Http.code = 429; _ } as r) when k < max_attempts ->
        tally.rejected_batches <- tally.rejected_batches + 1;
        Layer.time "loadgen.backoff" (fun () ->
            Unix.sleepf (Option.value ~default:0.05 (Http.retry_after r)));
        attempt (k + 1)
    | Ok { Http.code = 429; _ } ->
        tally.rejected_batches <- tally.rejected_batches + 1;
        tally.refused <- tally.refused + n
    | Ok _ | Error _ -> tally.refused <- tally.refused + n
  in
  attempt 1;
  Util.now ()

let get_posterior d tally tenant =
  let t0 = Util.now () in
  let r =
    Layer.time "http.posterior" (fun () ->
        Http.request ~port:d.port ~meth:"GET"
          ~path:(Printf.sprintf "/tenants/%s/posterior.json" tenant)
          ())
  in
  let dt = Util.now () -. t0 in
  tally.gets <- tally.gets + 1;
  (match r with
  | Ok { Http.code = 200 | 404; _ } -> ()
  | Ok _ | Error _ -> tally.get_failures <- tally.get_failures + 1);
  (r, dt)

let get_json d path =
  match
    Layer.time "http.scrape" (fun () -> Http.request ~port:d.port ~meth:"GET" ~path ())
  with
  | Ok { Http.code = 200; body; _ } -> Some body
  | Ok _ | Error _ -> None

(* Spawn a daemon and POST batch 0; the time to its 200 is one set-up
   sample. *)
let start_session dir tally (batch0 : line array) =
  let t0 = Util.now () in
  let d = spawn dir in
  let done_at = post_batch d tally batch0 in
  (d, done_at -. t0)

(* The open-loop stream, paced as qnet_replay paces it: batch [i] is
   due when its first line is, counted from the start (batch 0 was sent
   then, ending set-up). A late generator sends at once, and the
   lateness stays in the ingest latency because it is timed from the due
   time. *)
let stream ~trace d tally (input : input) =
  let t_start = Util.now () in
  let n = Array.length input.stream in
  let due i = t_start +. fst input.stream.(Stdlib.min i (n - 1)) in
  for i = 1 to n - 1 do
    let wait = due i -. Util.now () in
    if wait > 0.0 then Layer.time "loadgen.wait" (fun () -> Unix.sleepf wait);
    tally.late <- Float.max 0.0 (Util.now () -. due i) :: tally.late;
    let done_at = post_batch d tally (snd input.stream.(i)) in
    tally.ingest_lat <- (done_at -. due i) :: tally.ingest_lat;
    (* the read goes halfway to the next batch, apart from the shard's
       absorb of the batch just posted *)
    let read_at = ((due i +. due (i + 1)) /. 2.0) -. Util.now () in
    if read_at > 0.0 then Layer.time "loadgen.wait" (fun () -> Unix.sleepf read_at);
    let tenant = Replay.tenant_key ~tenants i in
    let _, dt = get_posterior d tally tenant in
    tally.posterior_lat <- dt :: tally.posterior_lat;
    if trace && i mod 5 = 0 then
      match get_json d "/shards.json" with
      | None -> ()
      | Some body ->
          (* one queue_depth per shard *)
          let rec scan from =
            match Util.json_number ~from body "queue_depth" with
            | None -> ()
            | Some v ->
                tally.depth_max <- Float.max tally.depth_max v;
                scan (Option.get (Util.find_after ~from body "\"queue_depth\":"))
          in
          scan 0
  done

(* Served posterior of every tenant: fresh when fitted on exactly the
   events sent for it (the stream stays under the tenant cap, and a
   complete replay prefix survives the lenient rebuild whole). *)
let fresh d tally tenant =
  match get_posterior d tally tenant with
  | Ok { Http.code = 200; body; _ }, _ ->
      Util.json_bool body "ready" = Some true
      && Util.json_number body "num_events"
         = Some (float_of_int (Option.value ~default:0 (Hashtbl.find_opt tally.sent_by_tenant tenant)))
  | _ -> false

(* 20 s per wait keeps a wedged daemon's run inside three minutes. *)
let wait_fresh ?(timeout = 20.0) d tally =
  let deadline = Util.now () +. timeout in
  let rec go pending =
    match List.filter (fun t -> not (fresh d tally t)) pending with
    | [] -> true
    | rest ->
        if Util.now () > deadline then false
        else begin
          Layer.time "refresh.poll_wait" (fun () -> Unix.sleepf 0.005);
          go rest
        end
  in
  go tenant_names

let stale_report d tally =
  String.concat "\n"
    (List.map
       (fun t ->
         let body =
           match get_posterior d tally t with
           | Ok r, _ -> r.Http.body
           | Error m, _ -> m
         in
         Printf.sprintf "%s sent=%d posterior=%s" t
           (Option.value ~default:0 (Hashtbl.find_opt tally.sent_by_tenant t))
           body)
       tenant_names)

let refresh_flushes d tally (input : input) =
  if not (wait_fresh d tally) then
    failwith ("stream never fully absorbed\n" ^ stale_report d tally);
  List.map
    (fun batch ->
      let acked = post_batch d tally batch in
      if not (wait_fresh d tally) then
        failwith ("flush never refreshed\n" ^ stale_report d tally);
      Util.now () -. acked)
    input.flush_batches

let posterior_service body =
  match Util.find_after body "\"mean_service\":[" with
  | None -> [||]
  | Some i -> (
      match String.index_from_opt body i ']' with
      | None -> [||]
      | Some j ->
          String.sub body i (j - i)
          |> String.split_on_char ','
          |> List.filter_map (fun s -> float_of_string_opt (String.trim s))
          |> Array.of_list)

(* Final verdict on the daemon's state: every tenant ready, not stale,
   with finite positive service estimates; the dead letter empty. Also
   the worst relative error of a tenant's served mean service against
   the realized mean service of that tenant's own events. *)
let final_state d tally (input : input) =
  let worst = ref 0.0 and ok = ref true in
  List.iter
    (fun (tenant, truth) ->
      match get_posterior d tally tenant with
      | Ok { Http.code = 200; body; _ }, _ ->
          if
            Util.json_bool body "ready" <> Some true
            || Util.json_bool body "stale" <> Some false
          then ok := false;
          let ms = posterior_service body in
          if Array.length ms <> Array.length truth then ok := false
          else
            Array.iteri
              (fun q t ->
                let v = ms.(q) in
                if not (Float.is_finite v && v > 0.0) then ok := false
                else if q > 0 then worst := Float.max !worst (Float.abs (v -. t) /. t))
              truth
      | _ -> ok := false)
    input.true_service;
  let dead_letter =
    match get_json d "/shards.json" with
    | Some body -> Util.json_number body "dead_letter"
    | None -> None
  in
  let dead_file = read_file (Filename.concat d.dir "dead-letter.jsonl") in
  (!ok && dead_letter = Some 0.0 && dead_file = "", !worst)

(* ------------------------------------------------------------------ *)
(* In-process replicas of the refit path                               *)
(* ------------------------------------------------------------------ *)

(* Shard.fit_tenant's CSV rendering, verbatim. *)
let csv_of_events events =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "task,state,queue,arrival,departure\n";
  List.iter
    (fun (e : Trace.event) ->
      Buffer.add_string buf
        (Printf.sprintf "%d,%d,%d,%.17g,%.17g\n" e.Trace.task e.Trace.state
           e.Trace.queue e.Trace.arrival e.Trace.departure))
    events;
  Buffer.contents buf

let decode_ns_per_line lines =
  let per_pass =
    List.init 5 (fun _ ->
        snd
          (Util.timed (fun () ->
               Layer.time "ingest.decode_line" (fun () ->
                   Array.iter
                     (fun l -> ignore (Sys.opaque_identity (Ingest.decode_line ~num_queues:3 l)))
                     lines))))
  in
  Util.median per_pass *. 1e9 /. float_of_int (Stdlib.max 1 (Array.length lines))

(* Tenant t0's final window: its events in the order the shard absorbed
   them. *)
let tenant_window (input : input) =
  Array.to_list input.all_lines
  |> List.filter_map (fun l ->
         match Ingest.decode_line ~num_queues:3 l with
         | Ok r when r.Ingest.tenant = "t0" -> Some (Ingest.to_trace_event r)
         | _ -> None)

let lenient_parse csv =
  match Trace.of_csv_lenient ~num_queues:3 csv with
  | Ok (t, _) -> t
  | Error _ -> failwith "tenant window does not rebuild"

(* The daemon's fit shape: obs_fraction 0.5, 30 StEM iterations. *)
let fit_fraction = 0.5
let fit_config = { Stem.default_config with Stem.iterations = 30; burn_in = 15 }

(* Bytes one refit of tenant t0's final window allocates, replayed
   in-process the way Shard.fit_tenant runs it (CSV round trip, mask,
   store build) with one StEM chain of the daemon's fit shape in place
   of the two supervised ones, whose domains [Gc.counters] does not
   see. Deterministic per seed. *)
let refit_alloc_bytes (input : input) =
  let window = tenant_window input in
  Gc.full_major ();
  let b0 = Util.allocated_bytes () in
  let trace = lenient_parse (csv_of_events window) in
  let rng = Rng.create ~seed:19 () in
  let mask = Obs.mask rng (Obs.Task_fraction fit_fraction) trace in
  let store = Store.of_trace ~observed:mask trace in
  ignore (Sys.opaque_identity (Stem.run ~config:fit_config rng store));
  Util.allocated_bytes () -. b0

(* The traced refit path on tenant t0's final window: the CSV round
   trip, the traced batch pipeline with the daemon's fit shape for the
   per-layer batch metrics (its GC deltas are the gc.* figures), and the
   supervised two-chain fit the shard runs. *)
let refit_replica (input : input) =
  let window = tenant_window input in
  let csv, csv_s =
    Util.timed (fun () ->
        Layer.time "refit.csv_roundtrip" (fun () ->
            let csv = csv_of_events window in
            ignore (lenient_parse csv);
            csv))
  in
  let parse (inp : Batch.input) = lenient_parse inp.Batch.csv in
  let inp =
    { Batch.csv; num_queues = 3; true_service = List.assoc "t0" input.true_service;
      seed = 17 }
  in
  let gc0 = Layer.gc_mark () in
  let _, store, params =
    Batch.traced_pipeline ~parse ~fraction:fit_fraction ~waiting_sweeps:2 fit_config inp
  in
  let gc = Layer.gc_since gc0 in
  let inorder_ns = Batch.inorder_probe ~n:5 (Rng.create ~seed:18 ()) store params in
  let trace = parse inp in
  let mask = Obs.mask (Rng.create ~seed:19 ()) (Obs.Task_fraction fit_fraction) trace in
  let sup_config =
    {
      Supervisor.default_config with
      Supervisor.chains = 2;
      min_chains = 1;
      stem = fit_config;
      round_iterations = 7;
      sweep_deadline = 5.0;
      max_restarts = 1;
    }
  in
  let _, supervisor_s =
    Util.timed (fun () ->
        Layer.time "refit.supervisor" (fun () ->
            Supervisor.run ~config:sup_config ~seed:20 (fun () ->
                Store.of_trace ~observed:mask trace)))
  in
  let unobserved = Array.length (Store.unobserved_events store) in
  Batch.batch_layer_metrics ~unobserved
    ~sweeps_total:(fit_config.Stem.warmup_sweeps + fit_config.Stem.iterations + 2)
    ~inorder_ns gc ~constraints:(Qnet_core.Init.constraint_count store)
  @ [
      ("refit.csv_roundtrip_s", csv_s, "s");
      ("refit.init_s", Layer.seconds "init.feasible", "s");
      ("refit.supervisor_s", supervisor_s, "s");
    ]

(* ------------------------------------------------------------------ *)
(* The run                                                             *)
(* ------------------------------------------------------------------ *)

type session = {
  tally : tally;
  setups : float list;
  wall : float;  (** first accepted ingest to the last stream batch answered *)
  traced_wall : float;  (** [wall] plus the refresh flushes *)
  coverage : float;
      (** span self time / busy part of [traced_wall], traced runs only *)
  idle : float;  (** the generator's own waiting in [traced_wall] *)
  lags : float list;
  rss_mb : float;
  state_ok : bool;
  rel_err : float;
  clean_exit : bool;
  fleet : string;  (** GET /fleet.json at the end *)
  life : float;  (** the measured daemon's spawn to that scrape *)
}

(* Spans that time the benchmark waiting, not a layer working. *)
let idle_spans = [ "loadgen.wait"; "loadgen.backoff"; "refresh.poll_wait" ]

let session ~trace ~seed sh (input : input) =
  let base = Filename.concat scratch_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) seed) in
  let tally = new_tally () in
  let batch0 = snd input.stream.(0) in
  (* set-up samples on throwaway daemons, then the measured one *)
  let spare =
    List.init (sh.spawns - 1) (fun k ->
        let d, s = start_session (Printf.sprintf "%s-spare%d" base k) (new_tally ()) batch0 in
        ignore (stop d);
        cleanup d;
        s)
  in
  let spawned = Util.now () in
  let d, s = start_session base tally batch0 in
  let result =
    match
      (* the traced section starts here, after set-up *)
      if trace then Layer.start ();
      let t0 = Util.now () in
      stream ~trace d tally input;
      let wall = Util.now () -. t0 in
      let lags = refresh_flushes d tally input in
      let traced_wall = Util.now () -. t0 in
      let idle = List.fold_left (fun acc n -> acc +. Layer.seconds n) 0.0 idle_spans in
      let coverage =
        if trace then Layer.coverage ~idle:idle_spans ~wall:traced_wall () else nan
      in
      let state_ok, rel_err = final_state d tally input in
      let scrape path = Option.value ~default:"" (get_json d path) in
      let fleet = scrape "/fleet.json" in
      let life = Util.now () -. spawned in
      ( wall, traced_wall, coverage, idle, lags, state_ok, rel_err, fleet, life,
        Util.vmhwm_mb d.pid )
    with
    | r -> Ok r
    | exception e -> Error (Printexc.to_string e)
  in
  let clean_exit = stop d in
  let log = Buffer.contents d.log in
  cleanup d;
  match result with
  | Error m -> failwith ("serve-replay: " ^ m ^ "\n" ^ log)
  | Ok (wall, traced_wall, coverage, idle, lags, state_ok, rel_err, fleet, life, rss_mb) ->
      {
        tally; setups = spare @ [ s ]; wall; traced_wall; coverage; idle; lags; rss_mb;
        state_ok; rel_err; clean_exit; fleet; life;
      }

(* sent = accepted + refused, nothing refused, no failed read, every
   tenant fresh and ready, an empty dead letter, and a clean exit. *)
let verdict s =
  let t = s.tally in
  let correct =
    s.state_ok && s.clean_exit && t.offered = t.accepted + t.refused && t.refused = 0
    && t.get_failures = 0
  in
  (correct, t.offered + t.gets, t.refused + t.get_failures)

let fleet_field s phase key =
  match Util.find_after s.fleet "\"fleet\":{" with
  | None -> 0.0
  | Some i -> (
      match Util.find_after ~from:i s.fleet ("\"" ^ phase ^ "\":{") with
      | None -> 0.0
      | Some j -> Option.value ~default:0.0 (Util.json_number ~from:j s.fleet key))

let run ~tiny ~seed ~seconds ~trace =
  let sh = shape ~tiny in
  let input = generate ~seed ~seconds sh in
  Util.mkdir_p scratch_dir;
  let s = session ~trace:false ~seed sh input in
  let correct, attempted, failed = verdict s in
  let t = s.tally in
  if not trace then
    {
      Util.correct;
      attempted;
      failed;
      metrics =
        [
          ("wall_s", s.wall, "s");
          ("setup_s", Util.median s.setups, "s");
          ("alloc_bytes", refit_alloc_bytes input, "B");
          ("max_rss_mb", s.rss_mb, "MB");
          ("ingest_p50_s", Util.median t.ingest_lat, "s");
          ("posterior_p50_s", Util.median t.posterior_lat, "s");
          ("refresh_lag_s", Util.median s.lags, "s");
        ];
    }
  else begin
    let ts = session ~trace:true ~seed sh input in
    let decode_ns = decode_ns_per_line input.all_lines in
    let replica = refit_replica input in
    Layer.stop ();
    let tt = ts.tally in
    let correct2, attempted2, failed2 = verdict ts in
    {
      Util.correct = correct && correct2;
      attempted = attempted + attempted2;
      failed = failed + failed2;
      metrics =
        replica
        @ [
            ("stem.service_rel_err", ts.rel_err, "ratio");
            ("ingest.decode_ns_per_line", decode_ns, "ns");
            ("admission.sampled_out", float_of_int tt.sampled_out, "count");
            ("queue.rejected_batches", float_of_int tt.rejected_batches, "count");
            ("queue.depth_max", tt.depth_max, "count");
            ("shard.fits", fleet_field ts "refit" "count", "count");
            ("shard.refit_p50_s", fleet_field ts "refit" "p50", "s");
            ("shard.refit_p95_s", fleet_field ts "refit" "p95", "s");
            ("shard.queue_wait_p99_s", fleet_field ts "queue_wait" "p99", "s");
            (* qnet_serve runs 2 shards by default *)
            ( "shard.refit_busy_frac",
              fleet_field ts "refit" "sum" /. (2.0 *. ts.life),
              "ratio" );
            (* the tails of the untraced session *)
            ("http.ingest_p90_s", Util.quantile 0.9 t.ingest_lat, "s");
            ("http.posterior_p90_s", Util.quantile 0.9 t.posterior_lat, "s");
            ("loadgen.late_max_s", Util.max_of tt.late, "s");
            ("loadgen.idle_s", ts.idle, "s");
            ("tracing.traced_wall_s", ts.traced_wall, "s");
            ("tracing.overhead_s", ts.traced_wall -. s.traced_wall, "s");
            ("tracing.span_coverage", ts.coverage, "ratio");
          ];
    }
  end
