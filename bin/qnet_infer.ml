(* qnet_infer: run StEM inference on a trace CSV.

   Reads a trace produced by qnet_sim (or a real system's exporter),
   optionally re-masks it to a given observation fraction, estimates
   per-queue rates and waiting times, and prints a localization
   report.

   Long runs are production runs: --checkpoint-every N periodically
   persists the full sampler state (atomically), --resume CKPT picks a
   killed run up bit-for-bit where it stopped, and --lenient ingests
   dirty trace files (duplicates, truncated lines, NaN fields, clock
   skew) by skipping and reporting the corrupt records instead of
   refusing the file.

   Production runs are also observable runs: --metrics-out snapshots
   the telemetry registry (Prometheus text, or JSONL for *.json[l] and
   "-"), --trace-out writes the span log as JSONL (feed it to
   `qnet_trace_tool summarize-trace`), --serve-metrics exposes
   /metrics over HTTP while the run executes, and --log-level turns on
   the supervisor's lifecycle log. All progress chatter goes to
   stderr; --quiet silences it (and the report tables) so stdout can
   carry piped JSONL unpolluted. Every failure exits through one path
   with a `qnet-infer: error:` prefix. *)

open Cmdliner
module Rng = Qnet_prob.Rng
module Trace = Qnet_trace.Trace
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Stem = Qnet_core.Stem
module Bayes = Qnet_core.Bayes
module Localization = Qnet_core.Localization
module Runtime = Qnet_runtime.Runtime
module Fault = Qnet_runtime.Fault
module Supervisor = Qnet_runtime.Supervisor
module Metrics = Qnet_obs.Metrics
module Span = Qnet_obs.Span
module Prof = Qnet_obs.Prof
module Diagnostics = Qnet_obs.Diagnostics
module Metrics_server = Qnet_webapp.Metrics_server

(* Progress chatter goes to stderr (never corrupts piped stdout);
   report tables go to stdout. --quiet silences both, leaving stdout
   to --metrics-out/--trace-out "-" streams and stderr to errors. *)
let quiet_flag = ref false

let chat fmt =
  if !quiet_flag then Format.ifprintf Format.err_formatter fmt
  else Format.eprintf fmt

let say fmt =
  if !quiet_flag then Format.ifprintf Format.std_formatter fmt
  else Format.printf fmt

let load_trace ~lenient ~num_queues input =
  Span.with_span "trace.load" @@ fun () ->
  if lenient then begin
    match Trace.load_lenient ~num_queues input with
    | Error m -> Error (Printf.sprintf "cannot load %s: %s" input m)
    | Ok (Error report) ->
        chat "%a" Trace.pp_ingest_report report;
        Error (Printf.sprintf "no usable events survive lenient ingestion of %s" input)
    | Ok (Ok (trace, report)) ->
        if report.Trace.errors <> [] then chat "%a" Trace.pp_ingest_report report;
        Ok trace
  end
  else
    match Trace.load ~num_queues input with
    | Error m ->
        Error
          (Printf.sprintf "cannot load %s: %s (try --lenient for dirty traces)" input m)
    | Ok trace -> Ok trace

(* Load the trace, draw the mask and build the store. An input that
   cannot carry inference (a fraction outside [0,1], a trace with no
   events, tasks entering at different queues or revisiting the arrival
   queue) ends here as an [Error], like every other failure. *)
let load_store ~lenient ~num_queues ~fraction ~seed input =
  let scheme = Obs.Task_fraction fraction in
  match Obs.validate scheme with
  | Error m -> Error (Printf.sprintf "bad -f %g: %s" fraction m)
  | Ok () -> (
      match load_trace ~lenient ~num_queues input with
      | Error m -> Error m
      | Ok trace -> (
          let rng = Rng.create ~seed () in
          let mask = Obs.mask rng scheme trace in
          match Store.of_trace ~observed:mask trace with
          | store -> Ok (trace, rng, mask, store)
          | exception Invalid_argument m ->
              Error
                (Printf.sprintf "cannot infer from %s: %s%s" input m
                   (if lenient then "" else " (try --lenient for dirty traces)"))))

(* [Stem.run], [Runtime.run] and [Bayes.run] fail with [Failure] when
   [Init.feasible] finds no feasible start: observations that break
   FIFO order or leave a latent departure no room. That is an unusable
   input too, so it ends here as an [Error]. *)
let initialized run = match run () with r -> Ok r | exception Failure m -> Error m

let print_estimates ~num_queues ~mean_service ~waiting ~intervals =
  match intervals with
  | None ->
      say "@\n%-8s %12s %12s@\n" "queue" "mean-serv" "mean-wait";
      for q = 0 to num_queues - 1 do
        say "%-8d %12.5f %12.5f@\n" q mean_service.(q) waiting.(q)
      done
  | Some ci ->
      say "@\n%-8s %12s %24s %12s@\n" "queue" "mean-serv" "90%%-credible"
        "mean-wait";
      for q = 0 to num_queues - 1 do
        let lo, hi = ci.(q) in
        say "%-8d %12.5f [%10.5f,%10.5f] %12.5f@\n" q mean_service.(q) lo hi
          waiting.(q)
      done

let rec parse_chain_faults = function
  | [] -> Ok []
  | s :: rest -> (
      match Fault.parse_chain_fault s with
      | Error m -> Error (Printf.sprintf "bad --chain-fault %S: %s" s m)
      | Ok f -> Result.map (fun fs -> f :: fs) (parse_chain_faults rest))

(* The cause a failed supervised run reports: the first dead chain's,
   or the first chain's when every chain was quarantined. *)
let first_failure verdicts =
  let dead (v : Supervisor.chain_verdict) =
    match v.status with Supervisor.Dead _ -> true | _ -> false
  in
  let v = Option.value (Array.find_opt dead verdicts) ~default:verdicts.(0) in
  Format.asprintf "chain %d %a" v.chain Supervisor.pp_chain_status v.status

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

(* ------------------------------------------------------------------ *)
(* Telemetry plumbing around the inference itself.                     *)
(* ------------------------------------------------------------------ *)

let write_file path data =
  try
    if path = "-" then (print_string data; flush stdout; Ok ())
    else begin
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc data);
      Ok ()
    end
  with Sys_error m -> Error (Printf.sprintf "cannot write %s: %s" path m)

let write_metrics_snapshot path =
  let data =
    if
      path = "-"
      || Filename.check_suffix path ".json"
      || Filename.check_suffix path ".jsonl"
    then Metrics.to_jsonl ~ts:(Qnet_obs.Clock.now ()) Metrics.default
    else Metrics.to_prometheus Metrics.default
  in
  write_file path data

let write_span_log path =
  let spans = Span.drain () in
  let dropped = Span.dropped () in
  if dropped > 0 then
    chat "note: span ring overflowed; %d oldest span(s) dropped@." dropped;
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string buf (Span.to_json s);
      Buffer.add_char buf '\n')
    spans;
  (* the dropped trailer lets summarize-trace report the loss even
     when this stderr note scrolled away *)
  if dropped > 0 then
    Buffer.add_string buf
      (Printf.sprintf "{\"meta\":\"qnet_trace\",\"dropped\":%d}\n" dropped);
  write_file path (Buffer.contents buf)

(* The profile written on shutdown: folded stacks (bytes-valued, ready
   for flamegraph tooling and `qnet_trace_tool flamegraph-diff`) when
   the path ends in .folded, the full JSON snapshot otherwise. The
   session is stopped first so the snapshot's duration is final. *)
let write_profile path =
  Prof.stop ();
  let data =
    if Filename.check_suffix path ".folded" then begin
      let buf = Buffer.create 4096 in
      List.iter
        (fun (stack, bytes) ->
          Buffer.add_string buf stack;
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int bytes);
          Buffer.add_char buf '\n')
        (Prof.to_folded ());
      Buffer.contents buf
    end
    else Prof.snapshot_json () ^ "\n"
  in
  write_file path data

(* Combine the inference outcome with the telemetry writes: telemetry
   is flushed even when inference fails (a failed run is exactly the
   one you want a trace of), and a telemetry write failure surfaces as
   the run's error rather than vanishing. *)
let with_telemetry ~metrics_out ~trace_out ~diagnostics_out ~serve_metrics
    ~serve_linger ~profile_out f =
  if metrics_out <> None || serve_metrics <> None || diagnostics_out <> None
  then begin
    Metrics.set_enabled true;
    (* Present-zeros convention: every diagnostics family is visible
       from the first scrape, before any sample lands. *)
    Diagnostics.register_metrics ()
  end;
  if trace_out <> None then Span.enable ();
  if profile_out <> None then begin
    Prof.start ();
    chat "profiling allocations and GC pauses@."
  end;
  let diag_sink =
    match diagnostics_out with
    | None -> Ok None
    | Some path -> (
        match
          if path = "-" then Ok stdout else try Ok (open_out path) with Sys_error m -> Error m
        with
        | Error m -> Error (Printf.sprintf "cannot write %s: %s" path m)
        | Ok oc ->
            Diagnostics.set_sink Diagnostics.default
              (Some
                 (fun line ->
                   output_string oc line;
                   output_char oc '\n';
                   flush oc));
            Ok (Some (path, oc)))
  in
  let server =
    match diag_sink with
    | Error m -> Error m
    | Ok _ -> (
        match serve_metrics with
        | None -> Ok None
        | Some port -> (
            match Metrics_server.start ~port () with
            | Ok srv ->
                chat
                  "serving metrics on http://127.0.0.1:%d/metrics (dashboard: \
                   /dashboard)@."
                  (Metrics_server.port srv);
                Ok (Some srv)
            | Error e -> Error (Metrics_server.bind_error_message e)))
  in
  match server with
  | Error m -> Error m
  | Ok server ->
      let outcome = f () in
      (* Final diagnostics snapshot: exports end-of-run gauges and the
         last JSONL line before the sink channel goes away. *)
      if Metrics.enabled () then Diagnostics.publish Diagnostics.default;
      (match diag_sink with
      | Ok (Some (path, oc)) ->
          Diagnostics.set_sink Diagnostics.default None;
          if path <> "-" then close_out oc else flush oc
      | _ -> ());
      let flush_errors =
        List.filter_map
          (fun (path, write) -> match path with
            | None -> None
            | Some p -> (match write p with Ok () -> None | Error m -> Some m))
          [
            (metrics_out, write_metrics_snapshot);
            (trace_out, write_span_log);
            (profile_out, write_profile);
          ]
      in
      (match server with
      | Some srv ->
          if serve_linger > 0.0 then begin
            chat "metrics endpoint lingers %.1fs for scrapes@." serve_linger;
            Unix.sleepf serve_linger
          end;
          Metrics_server.stop srv
      | None -> ());
      (match (outcome, flush_errors) with
      | Error m, _ -> Error m
      | Ok v, [] -> Ok v
      | Ok _, m :: _ -> Error m)

(* ------------------------------------------------------------------ *)
(* The inference run.                                                  *)
(* ------------------------------------------------------------------ *)

let infer input num_queues fraction iterations seed bayes lenient checkpoint_every
    checkpoint resume max_retries budget_seconds chains min_chains
    sweep_deadline_ms chain_faults =
  match load_store ~lenient ~num_queues ~fraction ~seed input with
  | Error m -> Error m
  | Ok (trace, rng, mask, store) ->
      chat "loaded %d events (%d tasks, %d queues); observing %.1f%% of tasks@."
        (Array.length trace.Trace.events)
        trace.Trace.num_tasks num_queues (100.0 *. fraction);
      let use_runtime = resume <> None || checkpoint_every > 0 in
      let runtime_config () =
        let ckpt_path =
          match (checkpoint, resume) with
          | Some p, _ -> Some p
          | None, Some p -> Some p
          | None, None ->
              if checkpoint_every > 0 then Some (input ^ ".ckpt") else None
        in
        {
          Runtime.stem =
            { Stem.default_config with Stem.iterations; burn_in = iterations / 2 };
          checkpoint_every = (if checkpoint_every > 0 then checkpoint_every else 25);
          checkpoint_path = ckpt_path;
          validate_every = Runtime.default_config.Runtime.validate_every;
          max_retries;
          max_seconds = budget_seconds;
        }
      in
      let outcome =
        if bayes then begin
          if use_runtime then
            chat
              "note: --checkpoint/--resume apply to StEM runs; --bayes runs \
               un-checkpointed@.";
          let config =
            { Bayes.default_config with Bayes.sweeps = 2 * iterations; burn_in = iterations }
          in
          Result.map
            (fun result ->
              ( result.Bayes.mean_service,
                result.Bayes.mean_waiting,
                Some result.Bayes.service_interval ))
            (initialized (fun () -> Bayes.run ~config rng store))
        end
        else if chains > 1 then begin
          if use_runtime then
            chat
              "note: --checkpoint/--resume apply to single-chain runs; supervised \
               chains checkpoint in memory at every round barrier@.";
          if sweep_deadline_ms <= 0.0 then Error "--sweep-deadline-ms must be positive"
          else
            match parse_chain_faults chain_faults with
            | Error m -> Error m
            | Ok faults ->
                let config =
                  {
                    Supervisor.default_config with
                    Supervisor.chains;
                    min_chains = Stdlib.min (Stdlib.max 1 min_chains) chains;
                    stem =
                      {
                        Stem.default_config with
                        Stem.iterations;
                        burn_in = iterations / 2;
                      };
                    sweep_deadline = sweep_deadline_ms /. 1000.0;
                  }
                in
                let make_store () = Store.of_trace ~observed:mask trace in
                match
                  Supervisor.run ~config ~faults ~diagnostics:Diagnostics.default ~seed
                    make_store
                with
                | exception Invalid_argument m -> Error m
                | r ->
                    say "%a@." Supervisor.pp_result r;
                    if r.Supervisor.status = Supervisor.Failed then
                      Error
                        ("supervised run failed: no healthy chains; "
                        ^ first_failure r.Supervisor.verdicts)
                    else begin
                      let waiting =
                        Stem.estimate_waiting rng store r.Supervisor.params
                      in
                      Ok (r.Supervisor.mean_service, waiting, None)
                    end
        end
        else if use_runtime then begin
          let config = runtime_config () in
          let result =
            match resume with
            | Some path ->
                Runtime.resume_file ~config ~diagnostics:Diagnostics.default ~path rng store
            | None ->
                initialized (fun () ->
                    Runtime.run ~config ~diagnostics:Diagnostics.default rng store)
          in
          match result with
          | Error m -> Error m
          | Ok r ->
              say "%a" Runtime.pp_report r.Runtime.report;
              (match r.Runtime.status with
              | Runtime.Completed -> ()
              | s -> say "status: %a@." Runtime.pp_status s);
              (match config.Runtime.checkpoint_path with
              | Some p -> chat "checkpoint: %s@." p
              | None -> ());
              let waiting = Stem.estimate_waiting rng store r.Runtime.params in
              Ok (r.Runtime.mean_service, waiting, None)
        end
        else begin
          let config =
            { Stem.default_config with Stem.iterations; burn_in = iterations / 2 }
          in
          Result.map
            (fun (result : Stem.result) ->
              let waiting = Stem.estimate_waiting rng store result.Stem.params in
              (result.Stem.mean_service, waiting, None))
            (initialized (fun () ->
                 Stem.run ~config ~diagnostics:Diagnostics.default rng store))
        end
      in
      (match outcome with
      | Error m -> Error m
      | Ok (mean_service, waiting, intervals) ->
          Span.with_span "infer.report" @@ fun () ->
          print_estimates ~num_queues ~mean_service ~waiting ~intervals;
          let reports =
            Localization.analyze
              ~exclude:[ Store.arrival_queue store ]
              ~mean_service ~mean_waiting:waiting ()
          in
          say "@.%a" Localization.pp_report reports;
          Ok ())

let run input num_queues fraction iterations seed bayes lenient checkpoint_every
    checkpoint resume max_retries budget_seconds chains min_chains
    sweep_deadline_ms chain_faults quiet metrics_out trace_out diagnostics_out
    log_level serve_metrics serve_linger profile_out =
  quiet_flag := quiet;
  match
    match log_level with
    | None -> Ok ()
    | Some s -> (
        match parse_log_level s with
        | Error m -> Error m
        | Ok level ->
            Logs.set_reporter (Logs_fmt.reporter ());
            Logs.set_level level;
            Ok ())
  with
  | Error m -> Error m
  | Ok () ->
      with_telemetry ~metrics_out ~trace_out ~diagnostics_out ~serve_metrics
        ~serve_linger ~profile_out (fun () ->
          Span.with_span "infer.run" (fun () ->
              infer input num_queues fraction iterations seed bayes lenient
                checkpoint_every checkpoint resume max_retries budget_seconds
                chains min_chains sweep_deadline_ms chain_faults))

let input =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"TRACE.CSV" ~doc:"Input trace file.")

let num_queues =
  Arg.(
    required
    & opt (some int) None
    & info [ "q"; "queues" ] ~docv:"N" ~doc:"Number of queues in the trace.")

let fraction =
  Arg.(
    value & opt float 0.1
    & info [ "f"; "fraction" ] ~docv:"F" ~doc:"Fraction of tasks to observe.")

let iterations =
  Arg.(value & opt int 200 & info [ "iterations" ] ~docv:"N" ~doc:"StEM iterations.")

let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

let bayes =
  Arg.(
    value & flag
    & info [ "bayes" ]
        ~doc:"Full Bayesian inference (credible intervals) instead of StEM point estimates.")

let lenient =
  Arg.(
    value & flag
    & info [ "lenient" ]
        ~doc:
          "Tolerate corrupt trace lines (duplicates, truncation, NaN fields, clock \
           skew): skip and report them instead of rejecting the file.")

let checkpoint_every =
  Arg.(
    value & opt int 0
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Write an atomic checkpoint of the sampler state every $(docv) StEM \
           iterations (0 disables checkpointing).")

let checkpoint =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint" ] ~docv:"FILE"
        ~doc:"Checkpoint file path (default: TRACE.CSV.ckpt).")

let resume =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"CKPT"
        ~doc:
          "Resume a killed run from its checkpoint; continues bit-for-bit where it \
           stopped (same seed and flags required).")

let max_retries =
  Arg.(
    value & opt int 3
    & info [ "max-retries" ] ~docv:"N"
        ~doc:
          "Rollback-and-retry attempts after a state-validation failure before \
           aborting with partial results.")

let budget_seconds =
  Arg.(
    value
    & opt (some float) None
    & info [ "budget-seconds" ] ~docv:"S"
        ~doc:
          "Wall-clock budget: end the run gracefully with the samples collected so \
           far once $(docv) seconds have elapsed.")

let chains =
  Arg.(
    value & opt int 1
    & info [ "chains" ] ~docv:"N"
        ~doc:
          "Run $(docv) independent supervised StEM chains on separate cores: \
           per-sweep watchdog heartbeats, divergence quarantine, restart from the \
           last good in-memory checkpoint, and a pooled estimate with \
           split-Rhat/ESS diagnostics and per-chain health verdicts. 1 (the \
           default) runs the classic single-chain path.")

let min_chains =
  Arg.(
    value & opt int 2
    & info [ "min-chains" ] ~docv:"K"
        ~doc:
          "Quorum for supervised runs: at least $(docv) chains must finish healthy \
           for a full-confidence pooled estimate; fewer (but at least one) degrades \
           the verdict instead of failing.")

let sweep_deadline_ms =
  Arg.(
    value & opt float 5000.0
    & info [ "sweep-deadline-ms" ] ~docv:"MS"
        ~doc:
          "Watchdog deadline between a supervised chain's Gibbs-sweep heartbeats, \
           in milliseconds. A chain quieter than this is declared stalled, \
           cancelled cooperatively, and restarted from its last good checkpoint; \
           one that ignores cancellation is abandoned and the run degrades to the \
           surviving chains.")

let chain_faults =
  Arg.(
    value & opt_all string []
    & info [ "chain-fault" ] ~docv:"SPEC"
        ~doc:
          "Inject a deterministic fault into a supervised chain (testing and \
           drills; repeatable). $(docv) is CHAIN:stall[=SECONDS]@ITERATION, \
           CHAIN:crash@ITERATION, or CHAIN:corrupt@ITERATION — e.g. \
           1:stall=0.5@5 sleeps chain 1 for 500ms at iteration 5. Each fault \
           fires at most once.")

let quiet =
  Arg.(
    value & flag
    & info [ "quiet" ]
        ~doc:
          "Suppress progress chatter and report tables; stdout then carries only \
           machine output ($(b,--metrics-out -) / $(b,--trace-out -)), stderr only \
           errors. Exit status still reports success or failure.")

let metrics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-out" ] ~docv:"FILE"
        ~doc:
          "Enable the metrics registry and snapshot it to $(docv) when the run \
           ends (also after a failed run). Prometheus text format by default; \
           JSONL when $(docv) ends in .json/.jsonl or is - (stdout).")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Enable span tracing and write the span log to $(docv) as JSONL when \
           the run ends (- for stdout). Summarize it with \
           $(b,qnet_trace_tool summarize-trace).")

let diagnostics_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "diagnostics-out" ] ~docv:"FILE"
        ~doc:
          "Stream convergence diagnostics to $(docv) as JSONL (- for stdout): \
           one snapshot line per publication interval with split-Rhat, ESS/sec, \
           per-queue posterior summaries, GC and kernel statistics — the same \
           document GET /diagnostics.json serves. Implies the metrics registry \
           is enabled.")

let log_level =
  Arg.(
    value
    & opt (some string) None
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "Runtime log verbosity on stderr: quiet, error, warning, info or debug. \
           Default: logging disabled.")

let serve_metrics =
  Arg.(
    value
    & opt (some int) None
    & info [ "serve-metrics" ] ~docv:"PORT"
        ~doc:
          "Serve GET /metrics (Prometheus), /metrics.json (JSONL), \
           /diagnostics.json (convergence diagnostics), /dashboard (live HTML) \
           and /healthz on 127.0.0.1:$(docv) for the duration of the run (0 \
           picks an ephemeral port). Implies the metrics registry is enabled.")

let serve_linger =
  Arg.(
    value & opt float 0.0
    & info [ "serve-metrics-linger" ] ~docv:"SECONDS"
        ~doc:
          "Keep the /metrics endpoint alive $(docv) seconds after the run \
           finishes, so external scrapers can collect the final snapshot.")

let profile_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile-out" ] ~docv:"FILE"
        ~doc:
          "Profile the run's allocations and GC pauses and write the result \
           to $(docv) on shutdown: flamegraph folded stacks (bytes-valued, \
           diff two runs with `qnet_trace_tool flamegraph-diff`) when $(docv) \
           ends in .folded, the full JSON snapshot (site table, pause \
           histograms, rusage) otherwise.")

let cmd =
  let term =
    Term.(
      const run $ input $ num_queues $ fraction $ iterations $ seed $ bayes $ lenient
      $ checkpoint_every $ checkpoint $ resume $ max_retries $ budget_seconds
      $ chains $ min_chains $ sweep_deadline_ms $ chain_faults $ quiet $ metrics_out
      $ trace_out $ diagnostics_out $ log_level $ serve_metrics $ serve_linger
      $ profile_out)
  in
  let info =
    Cmd.info "qnet_infer"
      ~doc:"Estimate queueing-network parameters from an incomplete trace"
  in
  Cmd.v info
    (Term.map
       (function
         | Ok () -> 0
         | Error m ->
             (* the one error path: every config, CLI, ingestion,
                inference or telemetry failure exits here *)
             prerr_endline ("qnet-infer: error: " ^ m);
             1)
       term)

let () = exit (Cmd.eval' cmd)
