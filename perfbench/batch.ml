(* The batch workload (infer-1m): the qnet_infer pipeline
   run in-process through the same public calls, in the same order,
   as [infer] in bin/qnet_infer.ml — Trace.of_csv, Observation.mask,
   Event_store.of_trace, Stem.run, Stem.estimate_waiting,
   Localization.analyze — on a three-tier 1-2-4 trace simulated from
   the seed before any timing starts. *)

module Rng = Qnet_prob.Rng
module Trace = Qnet_trace.Trace
module Network = Qnet_des.Network
module Topologies = Qnet_des.Topologies
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Gibbs = Qnet_core.Gibbs
module Init = Qnet_core.Init
module Stem = Qnet_core.Stem
module Localization = Qnet_core.Localization

type size = {
  tasks : int;
  iterations : int;  (** StEM iterations; burn-in is half *)
  warmup : int;  (** Gibbs sweeps before the first M-step *)
  waiting_sweeps : int;  (** Stem.estimate_waiting sweeps; burn-in is half *)
  min_setups : int;  (** set-ups timed per run, pipelines included *)
  inorder_probe : int;  (** in-order sweeps timed after the traced run *)
}

(* infer-1m is the 1-2-4 fixture at 1.05m events with a short chain, so
   that parsing, store building and initialization carry a large share
   of the time. *)
let size ~workload ~tiny =
  match (workload, tiny) with
  | "infer-1m", false ->
      { tasks = 263_158; iterations = 4; warmup = 2; waiting_sweeps = 4;
        min_setups = 7; inorder_probe = 1 }
  | _, true ->
      { tasks = 2_000; iterations = 20; warmup = 5; waiting_sweeps = 10;
        min_setups = 3; inorder_probe = 1 }
  | w, false -> invalid_arg ("unknown batch workload " ^ w)

let fraction = 0.05

(* Worst relative error of a non-arrival queue's mean service that a
   working pipeline stays under on every seed (observed worst about
   0.5 at 100k after 40 iterations); it catches broken output, not
   Monte Carlo error. *)
let service_tolerance = 2.0

type input = {
  csv : string;
  num_queues : int;
  true_service : float array;  (** realized mean service per queue *)
  seed : int;  (** inference seed (mask + chain) *)
}

let generate ~seed ~tasks =
  let net =
    Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4)
      ~service_rate:5.0 ()
  in
  let trace = Network.simulate_poisson (Rng.create ~seed ()) net ~num_tasks:tasks in
  {
    csv = Trace.to_csv trace;
    num_queues = trace.Trace.num_queues;
    true_service =
      Array.init trace.Trace.num_queues (fun q -> Util.mean (Trace.service_times trace q));
    seed = seed + 1;
  }

let stem_config sz =
  {
    Stem.default_config with
    Stem.iterations = sz.iterations;
    burn_in = sz.iterations / 2;
    warmup_sweeps = sz.warmup;
  }

type estimates = { mean_service : float array; waiting : float array; arrival_queue : int }

type pipeline = {
  est : estimates;
  setup_s : float;  (** load + mask + store build *)
  infer_s : float;  (** Stem.run + Stem.estimate_waiting *)
  wall_s : float;  (** trace load to rendered report *)
  alloc : float;  (** bytes allocated over the pipeline *)
}

let load inp =
  match Trace.of_csv ~num_queues:inp.num_queues inp.csv with
  | Ok t -> t
  | Error m -> failwith ("Trace.of_csv: " ^ m)

let render ~arrival_queue ~mean_service ~waiting =
  let reports =
    Localization.analyze ~exclude:[ arrival_queue ] ~mean_service
      ~mean_waiting:waiting ()
  in
  Format.asprintf "%a" Localization.pp_report reports

(* Load + mask + store build only: the extra set-up samples. *)
let setup_only inp =
  let t0 = Util.now () in
  let trace = load inp in
  let rng = Rng.create ~seed:inp.seed () in
  let mask = Obs.mask rng (Obs.Task_fraction fraction) trace in
  ignore (Sys.opaque_identity (Store.of_trace ~observed:mask trace));
  Util.now () -. t0

let run_pipeline sz inp =
  let b0 = Util.allocated_bytes () in
  let t0 = Util.now () in
  let trace = load inp in
  let rng = Rng.create ~seed:inp.seed () in
  let mask = Obs.mask rng (Obs.Task_fraction fraction) trace in
  let store = Store.of_trace ~observed:mask trace in
  let t1 = Util.now () in
  let result = Stem.run ~config:(stem_config sz) rng store in
  let waiting =
    Stem.estimate_waiting ~sweeps:sz.waiting_sweeps
      ~burn_in:(sz.waiting_sweeps / 2) rng store result.Stem.params
  in
  let t2 = Util.now () in
  let arrival_queue = Store.arrival_queue store in
  let mean_service = result.Stem.mean_service in
  ignore (Sys.opaque_identity (render ~arrival_queue ~mean_service ~waiting));
  let t3 = Util.now () in
  {
    est = { mean_service; waiting; arrival_queue };
    setup_s = t1 -. t0;
    infer_s = t2 -. t1;
    wall_s = t3 -. t0;
    alloc = Util.allocated_bytes () -. b0;
  }

(* The traced pipeline: every call wrapped in [Layer.time], and the
   single Stem.run call replaced by the public calls it makes —
   initial_guess, Init.feasible ~target, Gibbs.run for warm-up, then
   per iteration one Gibbs.sweep + Stem.mle_step ?prior +
   Event_store.log_likelihood — followed by the same post-burn-in
   average. Its estimates must equal [run_pipeline]'s bit for bit.
   Returns the estimates, the store and the final parameters. *)
let traced_pipeline ?(parse = load) ~fraction ~waiting_sweeps
    (config : Stem.config) inp =
  let trace = Layer.time "trace.of_csv" (fun () -> parse inp) in
  let rng = Rng.create ~seed:inp.seed () in
  let mask =
    Layer.time "observation.mask" (fun () ->
        Obs.mask rng (Obs.Task_fraction fraction) trace)
  in
  let store =
    Layer.time "event_store.of_trace" (fun () -> Store.of_trace ~observed:mask trace)
  in
  let params0 = Layer.time "stem.initial_guess" (fun () -> Stem.initial_guess store) in
  (match
     Layer.time "init.feasible" (fun () ->
         Init.feasible ~strategy:config.Stem.init_strategy ~target:params0 store)
   with
  | Ok () -> ()
  | Error m -> failwith ("Init.feasible: " ^ m));
  Layer.time "stem.warmup" (fun () ->
      Gibbs.run ~shuffle:config.Stem.shuffle ~sweeps:config.Stem.warmup_sweeps rng
        store params0);
  let prior =
    if config.Stem.prior_strength > 0.0 then Some (config.Stem.prior_strength, params0)
    else None
  in
  let history = Array.make config.Stem.iterations params0 in
  let params = ref params0 in
  for it = 0 to config.Stem.iterations - 1 do
    Layer.time "stem.iteration" (fun () ->
        Layer.time "gibbs.sweep" (fun () ->
            Gibbs.sweep ~shuffle:config.Stem.shuffle rng store !params);
        params :=
          Layer.time "stem.mle_step" (fun () ->
              Stem.mle_step ?prior store ~previous:!params
                ~min_queue_events:config.Stem.min_queue_events);
        history.(it) <- !params;
        ignore
          (Layer.time "event_store.log_likelihood" (fun () ->
               Store.log_likelihood store !params)))
  done;
  let nq = Store.num_queues store in
  let kept = config.Stem.iterations - config.Stem.burn_in in
  let mean_service = Array.make nq 0.0 in
  for it = config.Stem.burn_in to config.Stem.iterations - 1 do
    for q = 0 to nq - 1 do
      mean_service.(q) <-
        mean_service.(q) +. (Params.mean_service history.(it) q /. float_of_int kept)
    done
  done;
  let averaged =
    Params.create
      ~rates:(Array.map (fun s -> 1.0 /. s) mean_service)
      ~arrival_queue:(Store.arrival_queue store)
  in
  let waiting =
    Layer.time "stem.estimate_waiting" (fun () ->
        Stem.estimate_waiting ~sweeps:waiting_sweeps ~burn_in:(waiting_sweeps / 2)
          rng store averaged)
  in
  let arrival_queue = Store.arrival_queue store in
  ignore
    (Layer.time "localization.report" (fun () ->
         render ~arrival_queue ~mean_service ~waiting));
  ({ mean_service; waiting; arrival_queue }, store, averaged)

let service_rel_err inp est =
  let worst = ref 0.0 in
  Array.iteri
    (fun q truth ->
      if q <> est.arrival_queue then
        worst :=
          Float.max !worst (Float.abs (est.mean_service.(q) -. truth) /. truth))
    inp.true_service;
  !worst

(* A working pipeline: every estimate finite, mean services positive,
   waits non-negative, and service error under the tolerance. Waiting
   is not compared with the truth: queue 1 runs at rho = 2, so its
   wait grows with the horizon. *)
let plausible inp est =
  Array.for_all (fun v -> Float.is_finite v && v > 0.0) est.mean_service
  && Array.for_all (fun v -> Float.is_finite v && v >= 0.0) est.waiting
  && service_rel_err inp est < service_tolerance

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

(* Untraced measurement: pipelines back to back until [seconds] have
   passed (at least one), then extra set-ups up to [min_setups]. A full
   major collection runs between pipelines, outside the timed region,
   so each starts without the previous one's garbage. *)
let measure sz inp ~seconds =
  let t0 = Util.now () in
  let rec loop acc =
    Gc.full_major ();
    let p = run_pipeline sz inp in
    let acc = p :: acc in
    if Util.now () -. t0 < seconds then loop acc else List.rev acc
  in
  let runs = loop [] in
  let extra =
    List.init (Stdlib.max 0 (sz.min_setups - List.length runs)) (fun _ ->
        Gc.full_major ();
        setup_only inp)
  in
  (runs, List.map (fun p -> p.setup_s) runs @ extra)

let untraced_metrics runs setups =
  let walls = List.map (fun p -> p.wall_s) runs in
  let infers = List.map (fun p -> p.infer_s) runs in
  [
    ("wall_s", Util.median walls, "s");
    ("setup_s", Util.median setups, "s");
    ("alloc_bytes", Util.median (List.map (fun p -> p.alloc) runs), "B");
    ("max_rss_mb", Util.vmhwm_mb 0, "MB");
    (* The batch user's ingest is loading the trace into a store, their
       posterior read is the inference itself, and their refresh lag is
       the whole pipeline, so two of these repeat setup_s and wall_s:
       see perfbench/METRICS.md. *)
    ("ingest_p50_s", Util.median setups, "s");
    ("posterior_p50_s", Util.median infers, "s");
    ("refresh_lag_s", Util.median walls, "s");
  ]

let batch_layer_metrics ~unobserved ~sweeps_total ~inorder_ns (gc : Layer.gc) ~constraints =
  let iterations = List.length (Layer.samples "gibbs.sweep") in
  let ns_per_event s = s *. 1e9 /. float_of_int (Stdlib.max 1 unobserved) in
  [
    ("trace.of_csv_s", Layer.seconds "trace.of_csv", "s");
    ("trace.of_csv_bytes", Layer.bytes "trace.of_csv", "B");
    ("observation.mask_s", Layer.seconds "observation.mask", "s");
    ("observation.mask_bytes", Layer.bytes "observation.mask", "B");
    ("event_store.of_trace_s", Layer.seconds "event_store.of_trace", "s");
    ("event_store.of_trace_bytes", Layer.bytes "event_store.of_trace", "B");
    ("event_store.log_likelihood_s", Layer.seconds "event_store.log_likelihood", "s");
    ("init.feasible_s", Layer.seconds "init.feasible", "s");
    ("init.feasible_bytes", Layer.bytes "init.feasible", "B");
    ("init.constraints", float_of_int constraints, "count");
    ( "gibbs.shuffled_ns_per_event",
      ns_per_event (Util.median (Layer.samples "gibbs.sweep")),
      "ns" );
    ("gibbs.inorder_ns_per_event", inorder_ns, "ns");
    ( "gibbs.bytes_per_event",
      Layer.bytes "gibbs.sweep"
      /. float_of_int (Stdlib.max 1 (unobserved * iterations)),
      "B" );
    ("gibbs.events_resampled", float_of_int (unobserved * sweeps_total), "count");
    ("stem.warmup_s", Layer.seconds "stem.warmup", "s");
    ("stem.iteration_s", Layer.seconds "stem.iteration", "s");
    ("stem.mstep_s", Layer.seconds "stem.mle_step", "s");
    ("stem.estimate_waiting_s", Layer.seconds "stem.estimate_waiting", "s");
    ("gc.minor_collections", float_of_int gc.Layer.minor, "count");
    ("gc.major_collections", float_of_int gc.Layer.major, "count");
    ("gc.promoted_bytes", gc.Layer.promoted_bytes, "B");
  ]

(* Time [n] in-order sweeps on a store and return ns per resampled
   event (median sweep). *)
let inorder_probe ~n rng store params =
  let unobserved = Array.length (Store.unobserved_events store) in
  let times =
    List.init n (fun _ ->
        snd
          (Util.timed (fun () ->
               Layer.time "gibbs.sweep_inorder" (fun () ->
                   Gibbs.sweep ~shuffle:false rng store params))))
  in
  Util.median times *. 1e9 /. float_of_int (Stdlib.max 1 unobserved)

(* The serving layers have no work in a batch run. *)
let idle_serve_layers =
  [
    ("ingest.decode_ns_per_line", 0.0, "ns");
    ("admission.sampled_out", 0.0, "count");
    ("queue.rejected_batches", 0.0, "count");
    ("queue.depth_max", 0.0, "count");
    ("shard.fits", 0.0, "count");
    ("shard.refit_p50_s", 0.0, "s");
    ("shard.refit_p95_s", 0.0, "s");
    ("shard.queue_wait_p99_s", 0.0, "s");
    ("shard.refit_busy_frac", 0.0, "ratio");
    ("refit.csv_roundtrip_s", 0.0, "s");
    ("refit.init_s", 0.0, "s");
    ("refit.supervisor_s", 0.0, "s");
    ("http.ingest_p90_s", 0.0, "s");
    ("http.posterior_p90_s", 0.0, "s");
    ("loadgen.late_max_s", 0.0, "s");
    ("loadgen.idle_s", 0.0, "s");
  ]

let run ~workload ~tiny ~seed ~seconds ~trace =
  let sz = size ~workload ~tiny in
  let inp = generate ~seed ~tasks:sz.tasks in
  Gc.full_major ();
  let runs, setups = measure sz inp ~seconds in
  let untraced_failed = List.length (List.filter (fun p -> not (plausible inp p.est)) runs) in
  let reference = (List.hd runs).est in
  if not trace then
    {
      Util.correct = untraced_failed = 0;
      attempted = List.length runs;
      failed = untraced_failed;
      metrics = untraced_metrics runs setups;
    }
  else begin
    Gc.full_major ();
    let config = stem_config sz in
    Layer.start ();
    let gc0 = Layer.gc_mark () in
    let (est, store, params), traced_wall =
      Util.timed (fun () ->
          traced_pipeline ~fraction ~waiting_sweeps:sz.waiting_sweeps config inp)
    in
    let gc = Layer.gc_since gc0 in
    let coverage = Layer.coverage ~wall:traced_wall () in
    let inorder_ns =
      inorder_probe ~n:sz.inorder_probe (Rng.create ~seed:inp.seed ()) store params
    in
    Layer.stop ();
    let unobserved = Array.length (Store.unobserved_events store) in
    let identical =
      bits_equal est.mean_service reference.mean_service
      && bits_equal est.waiting reference.waiting
    in
    let failed = untraced_failed + if identical && plausible inp est then 0 else 1 in
    let untraced_wall = Util.median (List.map (fun p -> p.wall_s) runs) in
    {
      Util.correct = failed = 0;
      attempted = List.length runs + 1;
      failed;
      metrics =
        batch_layer_metrics ~unobserved
          ~sweeps_total:(sz.warmup + sz.iterations + sz.waiting_sweeps)
          ~inorder_ns gc ~constraints:(Init.constraint_count store)
        @ idle_serve_layers
        @ [
            ("tracing.traced_wall_s", traced_wall, "s");
            ("tracing.overhead_s", traced_wall -. untraced_wall, "s");
            ("tracing.span_coverage", coverage, "ratio");
            ("stem.service_rel_err", service_rel_err inp est, "ratio");
          ];
    }
  end
