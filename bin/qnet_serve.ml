(* qnet_serve: the always-on sharded inference daemon.

   Ingests streaming trace events (JSONL over HTTP POST /ingest, or
   tailed from files with --tail), routes them by tenant key to
   per-shard bounded queues, and continuously refits per-tenant
   posteriors with the supervised StEM runtime. Serves /shards.json,
   /tenants/:id/posterior.json, and the telemetry endpoints
   (/metrics, /dashboard, ...) from one listener.

   Operational discipline:
   - overload answers 429 + Retry-After, never unbounded memory;
   - poison input is quarantined to the dead-letter file, never fatal;
   - a crashed shard restarts with exponential backoff; past its
     retry budget it degrades to serving stale posteriors;
   - SIGTERM/SIGINT (or --run-seconds) stop gracefully: drain, final
     checkpoint per shard, then exit — a restarted daemon resumes
     every shard from its checkpoint.

   The stderr lines are stable and machine-readable on purpose: the
   `make verify-serve` soak greps them ("listening on", "resumed",
   "final") to assert recovery and monotone iteration counters. *)

open Cmdliner
module Daemon = Qnet_serve.Daemon
module Shard = Qnet_serve.Shard
module Admission = Qnet_serve.Admission
module Bounded_queue = Qnet_serve.Bounded_queue
module Fault = Qnet_runtime.Fault
module Metrics = Qnet_obs.Metrics
module Clock = Qnet_obs.Clock
module Span = Qnet_obs.Span

let rec parse_faults ~shards = function
  | [] -> Ok []
  | s :: rest -> (
      match Fault.parse_service_fault s with
      | Error m -> Error (Printf.sprintf "bad --fault %S: %s" s m)
      | Ok f when f.Fault.shard >= shards ->
          Error
            (Printf.sprintf
               "bad --fault %S: shard %d does not exist (--shards %d)" s
               f.Fault.shard shards)
      | Ok f -> Result.map (fun fs -> f :: fs) (parse_faults ~shards rest))

let parse_log_level = function
  | "quiet" | "none" -> Ok None
  | "error" -> Ok (Some Logs.Error)
  | "warning" | "warn" -> Ok (Some Logs.Warning)
  | "info" -> Ok (Some Logs.Info)
  | "debug" -> Ok (Some Logs.Debug)
  | s ->
      Error
        (Printf.sprintf
           "bad --log-level %S: expected quiet, error, warning, info or debug" s)

let write_metrics_snapshot path =
  let data =
    if
      path = "-"
      || Filename.check_suffix path ".json"
      || Filename.check_suffix path ".jsonl"
    then Metrics.to_jsonl ~ts:(Clock.now ()) Metrics.default
    else Metrics.to_prometheus Metrics.default
  in
  try
    if path = "-" then begin
      print_string data;
      flush stdout;
      Ok ()
    end
    else begin
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc data);
      Ok ()
    end
  with Sys_error m -> Error (Printf.sprintf "cannot write %s: %s" path m)

let write_span_log path =
  let spans = Span.drain () in
  let dropped = Span.dropped () in
  try
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> Span.write_jsonl ~dropped oc spans);
    Printf.eprintf "qnet-serve: wrote %d span(s) (%d dropped) -> %s\n%!"
      (List.length spans) dropped path;
    Ok ()
  with Sys_error m -> Error (Printf.sprintf "cannot write %s: %s" path m)

let stop_requested = Atomic.make false

let install_signal_handlers () =
  let handle = Sys.Signal_handle (fun _ -> Atomic.set stop_requested true) in
  (try Sys.set_signal Sys.sigterm handle with Invalid_argument _ -> ());
  try Sys.set_signal Sys.sigint handle with Invalid_argument _ -> ()

let serve shards data_dir host port retry_ephemeral queues queue_capacity
    refit_events refit_interval min_tenant_events fit_iterations chains
    max_restarts fit_deadline admission_min_rate seed dead_letter
    no_dead_letter tails tail_policy faults trace_out trace_sample_rate
    trace_seed run_seconds metrics_out log_level profile =
  if not (trace_sample_rate >= 0.0 && trace_sample_rate <= 1.0) then
    Error
      (Printf.sprintf "bad --trace-sample-rate %g: expected a rate in [0, 1]"
         trace_sample_rate)
  else
  match
    (* warnings (failed appends and checkpoints, torn tails, rotations)
       reach stderr unless --log-level says otherwise *)
    match Option.fold ~none:(Ok (Some Logs.Warning)) ~some:parse_log_level log_level with
    | Error m -> Error m
    | Ok level ->
        Logs.set_reporter (Logs_fmt.reporter ());
        Logs.set_level level;
        Ok ()
  with
  | Error m -> Error m
  | Ok () -> (
      match parse_faults ~shards faults with
      | Error m -> Error m
      | Ok faults -> (
          match Bounded_queue.policy_of_string tail_policy with
          | Error m -> Error (Printf.sprintf "bad --tail-policy: %s" m)
          | Ok tail_policy ->
              Metrics.set_enabled true;
              install_signal_handlers ();
              let shard_cfg =
                {
                  Shard.default_config with
                  Shard.num_queues = queues;
                  queue_capacity;
                  refit_events;
                  refit_interval;
                  min_tenant_events;
                  fit_iterations;
                  chains;
                  max_restarts;
                  fit_deadline;
                  seed;
                }
              in
              let admission_cfg =
                {
                  Admission.default_config with
                  Admission.min_rate = admission_min_rate;
                  seed;
                }
              in
              let dead_letter =
                if no_dead_letter then None
                else
                  Some
                    (match dead_letter with
                    | Some p -> p
                    | None -> Filename.concat data_dir "dead-letter.jsonl")
              in
              let cfg =
                {
                  Daemon.shards;
                  data_dir;
                  host;
                  port;
                  retry_ephemeral;
                  dead_letter;
                  tail_files = tails;
                  tail_policy;
                  shard = shard_cfg;
                  admission = admission_cfg;
                  faults;
                  trace_sample_rate;
                  trace_seed;
                  profile_on_start = profile;
                }
              in
              if trace_out <> None then Span.enable ();
              (match Daemon.create cfg with
              | Error m -> Error m
              | Ok daemon ->
                  Printf.eprintf
                    "qnet-serve: listening on http://%s:%d (POST /ingest, GET \
                     /shards.json /tenants/:id/posterior.json /metrics \
                     /dashboard)\n\
                     %!"
                    host (Daemon.port daemon);
                  if Daemon.fell_back daemon then
                    Printf.eprintf
                      "qnet-serve: note: port %d was taken; fell back to an \
                       ephemeral port\n\
                       %!"
                      port;
                  List.iter
                    (fun s ->
                      if Shard.resumed s then
                        Printf.eprintf
                          "qnet-serve: shard %d resumed iterations=%d \
                           rounds=%d replayed=%d corrupt_frames=%d \
                           torn_tails=%d\n\
                           %!"
                          (Shard.id s) (Shard.iterations s) (Shard.rounds s)
                          (Shard.replayed_events s)
                          (Shard.log_corrupt_frames s)
                          (Shard.log_torn_tails s))
                    (Daemon.shards daemon);
                  let t0 = Clock.now () in
                  let expired () =
                    match run_seconds with
                    | None -> false
                    | Some s -> Clock.now () -. t0 >= s
                  in
                  while (not (Atomic.get stop_requested)) && not (expired ())
                  do
                    Thread.delay 0.1
                  done;
                  Printf.eprintf "qnet-serve: stopping (drain + final \
                                  checkpoint)\n%!";
                  Daemon.stop daemon;
                  List.iter
                    (fun s ->
                      Printf.eprintf
                        "qnet-serve: shard %d final status=%s iterations=%d \
                         rounds=%d restarts=%d\n\
                         %!"
                        (Shard.id s)
                        (Shard.status_label (Shard.status s))
                        (Shard.iterations s) (Shard.rounds s)
                        (Shard.restarts s))
                    (Daemon.shards daemon);
                  Printf.eprintf "qnet-serve: dead-letter %d\n%!"
                    (Daemon.dead_letter_count daemon);
                  (match
                     match trace_out with
                     | None -> Ok ()
                     | Some path -> write_span_log path
                   with
                  | Error m -> Error m
                  | Ok () -> (
                      match metrics_out with
                      | None -> Ok ()
                      | Some path -> write_metrics_snapshot path)))))

let shards =
  Arg.(
    value & opt int 2
    & info [ "shards" ] ~docv:"N"
        ~doc:"Number of shards (each owns a worker thread, a bounded queue \
              and a data directory).")

let data_dir =
  Arg.(
    value
    & opt string "qnet-serve-data"
    & info [ "data-dir" ] ~docv:"DIR"
        ~doc:"State root: per-shard checkpoints and event logs live in \
              $(docv)/shard-N; a restarted daemon resumes from them.")

let host =
  Arg.(
    value & opt string "127.0.0.1"
    & info [ "host" ] ~docv:"ADDR" ~doc:"Listen address.")

let port =
  Arg.(
    value & opt int 8099
    & info [ "p"; "port" ] ~docv:"PORT"
        ~doc:"Listen port (0 picks an ephemeral port).")

let retry_ephemeral =
  Arg.(
    value & flag
    & info [ "retry-ephemeral" ]
        ~doc:"Survive a port collision: when $(b,--port) is taken, retry on \
              an ephemeral port instead of failing startup.")

let queues =
  Arg.(
    value & opt int 3
    & info [ "q"; "queues" ] ~docv:"N"
        ~doc:"Number of queues in the ingested traces.")

let queue_capacity =
  Arg.(
    value & opt int 1024
    & info [ "queue-capacity" ] ~docv:"N"
        ~doc:"Per-shard ingest queue bound — the admission-control limit \
              behind 429 responses.")

let refit_events =
  Arg.(
    value & opt int 120
    & info [ "refit-events" ] ~docv:"N"
        ~doc:"Fresh events per tenant that trigger a posterior refit.")

let refit_interval =
  Arg.(
    value & opt float 2.0
    & info [ "refit-interval" ] ~docv:"SECONDS"
        ~doc:"Refit any tenant with fresh events at least this often.")

let min_tenant_events =
  Arg.(
    value & opt int 40
    & info [ "min-tenant-events" ] ~docv:"N"
        ~doc:"Tenants with fewer buffered events are not fitted yet.")

let fit_iterations =
  Arg.(
    value & opt int 30
    & info [ "fit-iterations" ] ~docv:"N" ~doc:"StEM iterations per fit.")

let chains =
  Arg.(
    value & opt int 2
    & info [ "chains" ] ~docv:"N" ~doc:"Supervised chains per fit.")

let max_restarts =
  Arg.(
    value & opt int 3
    & info [ "max-restarts" ] ~docv:"N"
        ~doc:"Shard restart budget; past it the shard degrades to serving \
              stale posteriors instead of crashing the daemon.")

let fit_deadline =
  Arg.(
    value & opt float 10.0
    & info [ "fit-deadline" ] ~docv:"SECONDS"
        ~doc:"Wall-clock budget for one refit round; a round over budget \
              demotes the shard down the degradation ladder (full -> \
              incremental -> pinned).")

let admission_min_rate =
  Arg.(
    value & opt float 0.01
    & info [ "admission-min-rate" ] ~docv:"RATE"
        ~doc:"Floor for the per-tenant Bernoulli admission rate under \
              sustained overload (default 1%, the sampled-tracing regime).")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let dead_letter =
  Arg.(
    value
    & opt (some string) None
    & info [ "dead-letter" ] ~docv:"FILE"
        ~doc:"Quarantine file for poison input lines (default: \
              DATA-DIR/dead-letter.jsonl).")

let no_dead_letter =
  Arg.(
    value & flag
    & info [ "no-dead-letter" ]
        ~doc:"Count poison lines but do not write a quarantine file.")

let tails =
  Arg.(
    value & opt_all string []
    & info [ "tail" ] ~docv:"FILE"
        ~doc:"Tail $(docv) for JSONL/CSV events (repeatable). The file may \
              not exist yet; the tailer waits for it.")

let tail_policy =
  Arg.(
    value & opt string "block"
    & info [ "tail-policy" ] ~docv:"POLICY"
        ~doc:"What a tailer does when a shard queue is full: block (fall \
              behind, lose nothing) or shed (drop and count).")

let faults =
  Arg.(
    value & opt_all string []
    & info [ "fault" ] ~docv:"SPEC"
        ~doc:"Inject a deterministic service-level fault (chaos drills; \
              repeatable). $(docv) is SHARD:ingest-stall[=SECONDS]@AFTER, \
              SHARD:crash@AFTER, SHARD:ckpt-fail@AFTER, \
              SHARD:slow[=SECONDS]@AFTER, SHARD:torn-write@AFTER, \
              SHARD:bit-flip@AFTER or SHARD:overload=RPS@AFTER, with AFTER \
              in seconds from daemon start — e.g. 1:crash@6 crashes shard \
              1's worker six seconds in (the supervisor restarts it with \
              backoff); 0:torn-write@6 tears shard 0's event log mid-frame; \
              1:overload=50@3 caps shard 1's drain at 50 events/s so \
              admission sampling and the degradation ladder engage.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Enable request tracing and write the sampled spans (JSONL, one \
              span per line plus a dropped-count trailer) to $(docv) on \
              shutdown; summarize with qnet_trace_tool summarize-trace.")

let trace_sample_rate =
  Arg.(
    value & opt float 0.01
    & info [ "trace-sample-rate" ] ~docv:"RATE"
        ~doc:"Head-based trace sampling rate in [0,1]: the coin is flipped \
              once per admitted ingest record and the decision follows the \
              request through queue, refit and serve (default 1%).")

let trace_seed =
  Arg.(
    value & opt int 1
    & info [ "trace-seed" ] ~docv:"SEED"
        ~doc:"Trace sampler seed; the same seed and ingest order sample the \
              same requests.")

let run_seconds =
  Arg.(
    value
    & opt (some float) None
    & info [ "run-seconds" ] ~docv:"S"
        ~doc:"Stop gracefully after $(docv) seconds (soaks and demos); \
              default: run until SIGTERM/SIGINT.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:"Snapshot the metrics registry to $(docv) on shutdown \
              (Prometheus text; JSONL for .json/.jsonl or -).")

let log_level =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:"Daemon log verbosity on stderr: quiet, error, warning, info \
              or debug. Without it the daemon logs warnings and errors.")

let profile =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:"Start an allocation/GC-pause profiling session at boot; scrape \
              it live at GET /profile.json. Without this flag a live daemon \
              can still be profiled on demand via POST /profile/start and \
              /profile/stop.")

let cmd =
  let term =
    Term.(
      const serve $ shards $ data_dir $ host $ port $ retry_ephemeral $ queues
      $ queue_capacity $ refit_events $ refit_interval $ min_tenant_events
      $ fit_iterations $ chains $ max_restarts $ fit_deadline
      $ admission_min_rate $ seed $ dead_letter $ no_dead_letter $ tails
      $ tail_policy $ faults $ trace_out $ trace_sample_rate $ trace_seed
      $ run_seconds $ metrics_out $ log_level $ profile)
  in
  let info =
    Cmd.info "qnet_serve"
      ~doc:
        "Always-on sharded inference daemon: stream traces in, read \
         posteriors out, survive crashes"
  in
  Cmd.v info
    (Term.map
       (function
         | Ok () -> 0
         | Error m ->
             prerr_endline ("qnet-serve: error: " ^ m);
             1)
       term)

let () = exit (Cmd.eval' cmd)
