(* Tests for the supervised multi-chain runtime: watchdog heartbeats
   and deadlines, chain-level fault injection (stall / crash /
   latent corruption), quarantine and restart, graceful degradation,
   quorum pooling, and the cross-chain divergence statistics. *)

module Rng = Qnet_prob.Rng
module Statistics = Qnet_prob.Statistics
module Welford = Statistics.Welford
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Stem = Qnet_core.Stem
module Obs = Qnet_core.Observation
module Topologies = Qnet_des.Topologies
module Health = Qnet_runtime.Health
module Fault = Qnet_runtime.Fault
module Watchdog = Qnet_runtime.Watchdog
module Supervisor = Qnet_runtime.Supervisor
module Pool = Qnet_runtime.Pool
module Metrics = Qnet_obs.Metrics

let tandem_net () =
  Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 15.0; 12.0 ]

(* Fresh, independent store per call — same trace and mask every time
   (fixed simulation seed), so chains differ only by their RNG. *)
let make_store () =
  let rng = Rng.create ~seed:41 () in
  let _, _, store =
    Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.5) rng (tandem_net ()) 120
  in
  store

let sup_config ?(chains = 4) ?(min_chains = 2) ?(iterations = 36)
    ?(burn_in = 12) ?(round_iterations = 8) ?(max_restarts = 2)
    ?(deadline = 5.0) ?(grace = 2.0) () =
  {
    Supervisor.default_config with
    Supervisor.chains;
    min_chains;
    stem = { Stem.default_config with Stem.iterations; burn_in; warmup_sweeps = 5 };
    round_iterations;
    max_restarts;
    sweep_deadline = deadline;
    stall_grace = grace;
  }

let verdict_t = Alcotest.testable Supervisor.pp_verdict ( = )

let is_healthy (v : Supervisor.chain_verdict) =
  v.Supervisor.status = Supervisor.Healthy

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let has_incident substr (v : Supervisor.chain_verdict) =
  List.exists (fun (_, cause) -> contains cause substr) v.Supervisor.incidents

(* ------------------------------------------------------------------ *)
(* Watchdog unit tests *)
(* ------------------------------------------------------------------ *)

let verdict_kind = function
  | Watchdog.Done -> "done"
  | Watchdog.Alive _ -> "alive"
  | Watchdog.Stalled _ -> "stalled"

let test_watchdog_heartbeat () =
  let hb = Watchdog.Heartbeat.create () in
  Alcotest.(check bool) "fresh heartbeat is done" true (Watchdog.Heartbeat.is_done hb);
  Watchdog.Heartbeat.arm hb ~now:100.0;
  Alcotest.(check bool) "armed heartbeat is live" false (Watchdog.Heartbeat.is_done hb);
  let wd = Watchdog.create ~deadline:1.0 [| hb |] in
  Alcotest.(check string) "fresh arm is alive" "alive"
    (verdict_kind (Watchdog.poll ~now:100.5 wd).(0));
  Watchdog.Heartbeat.beat hb ~now:101.0 ~sweep:3;
  let at, sweep = Watchdog.Heartbeat.last hb in
  Alcotest.(check (float 0.0)) "beat time" 101.0 at;
  Alcotest.(check int) "beat sweep" 3 sweep;
  Alcotest.(check int) "beat count" 1 (Watchdog.Heartbeat.beats hb);
  Alcotest.(check string) "within deadline" "alive"
    (verdict_kind (Watchdog.poll ~now:101.9 wd).(0));
  Alcotest.(check string) "past deadline" "stalled"
    (verdict_kind (Watchdog.poll ~now:102.5 wd).(0));
  Alcotest.(check (list int)) "stalled indices" [ 0 ]
    (Watchdog.stalled ~now:102.5 wd);
  Watchdog.Heartbeat.mark_done hb;
  Alcotest.(check string) "done beats the deadline" "done"
    (verdict_kind (Watchdog.poll ~now:200.0 wd).(0));
  Alcotest.(check (list int)) "no stalls once done" []
    (Watchdog.stalled ~now:200.0 wd);
  Alcotest.check_raises "non-positive deadline rejected"
    (Invalid_argument "Watchdog.create: deadline must be finite and positive")
    (fun () -> ignore (Watchdog.create ~deadline:0.0 [||]))

let test_watchdog_rearm_preserves_beats () =
  let hb = Watchdog.Heartbeat.create () in
  Watchdog.Heartbeat.arm hb ~now:1.0;
  Watchdog.Heartbeat.beat hb ~now:2.0 ~sweep:0;
  Watchdog.Heartbeat.beat hb ~now:3.0 ~sweep:1;
  Watchdog.Heartbeat.mark_done hb;
  Watchdog.Heartbeat.arm hb ~now:10.0;
  Alcotest.(check bool) "re-armed" false (Watchdog.Heartbeat.is_done hb);
  Alcotest.(check int) "beats survive re-arm" 2 (Watchdog.Heartbeat.beats hb);
  let at, _ = Watchdog.Heartbeat.last hb in
  Alcotest.(check (float 0.0)) "clock restarted" 10.0 at

let test_watchdog_age_and_misses () =
  let hb = Watchdog.Heartbeat.create () in
  Watchdog.Heartbeat.arm hb ~now:100.0;
  Alcotest.(check (float 1e-9))
    "age from arm time before any beat" 0.5
    (Watchdog.Heartbeat.age hb ~now:100.5);
  Watchdog.Heartbeat.beat hb ~now:101.0 ~sweep:0;
  Alcotest.(check (float 1e-9))
    "age from last beat" 2.0
    (Watchdog.Heartbeat.age hb ~now:103.0);
  Alcotest.(check (float 1e-9))
    "age clamped non-negative under clock skew" 0.0
    (Watchdog.Heartbeat.age hb ~now:100.9);
  let wd = Watchdog.create ~deadline:1.0 [| hb |] in
  Alcotest.(check int) "no misses yet" 0 (Watchdog.misses wd);
  ignore (Watchdog.poll ~now:101.5 wd);
  Alcotest.(check int) "alive poll does not count" 0 (Watchdog.misses wd);
  ignore (Watchdog.poll ~now:102.5 wd);
  ignore (Watchdog.poll ~now:103.0 wd);
  Alcotest.(check int) "each stalled verdict counts" 2 (Watchdog.misses wd);
  ignore (Watchdog.stalled ~now:104.0 wd);
  Alcotest.(check int) "stalled probe is read-only" 2 (Watchdog.misses wd);
  Watchdog.Heartbeat.mark_done hb;
  ignore (Watchdog.poll ~now:200.0 wd);
  Alcotest.(check int) "done chains stop counting" 2 (Watchdog.misses wd)

(* ------------------------------------------------------------------ *)
(* Divergence statistics *)
(* ------------------------------------------------------------------ *)

let test_ks_outlier_scores () =
  let consensus i = float_of_int (i mod 50) /. 50.0 in
  let chains =
    [|
      Array.init 100 consensus;
      Array.init 100 (fun i -> consensus (i + 13));
      Array.init 100 (fun i -> 10.0 +. consensus i);
    |]
  in
  let scores = Supervisor.ks_outlier_scores chains in
  Alcotest.(check int) "one score per chain" 3 (Array.length scores);
  Alcotest.(check bool) "outlier saturates" true (scores.(2) > 0.9);
  Alcotest.(check bool) "consensus chains score low" true
    (scores.(0) < 0.6 && scores.(1) < 0.6);
  Alcotest.check_raises "single chain rejected"
    (Invalid_argument "Supervisor.ks_outlier_scores: need >= 2 chains")
    (fun () -> ignore (Supervisor.ks_outlier_scores [| [| 1.0 |] |]))

let test_split_gelman_rubin () =
  let rng = Rng.create ~seed:5 () in
  let stationary () = Array.init 200 (fun _ -> Rng.float_unit rng) in
  let same = Statistics.split_gelman_rubin [| stationary (); stationary () |] in
  Alcotest.(check bool) "agreeing chains near 1" true (same < 1.1);
  let shifted = Array.map (fun x -> x +. 5.0) (stationary ()) in
  let apart = Statistics.split_gelman_rubin [| stationary (); shifted |] in
  Alcotest.(check bool) "disjoint chains blow up" true (apart > 2.0);
  (* a single drifting chain is caught by the split *)
  let drift = Array.init 200 (fun i -> float_of_int i) in
  let single = Statistics.split_gelman_rubin [| drift |] in
  Alcotest.(check bool) "within-chain drift detected" true (single > 1.5);
  (* unequal lengths: the shortest chain decides the window *)
  let unequal =
    Statistics.split_gelman_rubin [| stationary (); Array.sub (stationary ()) 0 50 |]
  in
  Alcotest.(check bool) "unequal lengths accepted" true (Float.is_finite unequal);
  Alcotest.check_raises "chains too short"
    (Invalid_argument "Statistics.split_gelman_rubin: chains too short")
    (fun () -> ignore (Statistics.split_gelman_rubin [| [| 1.0; 2.0; 3.0 |] |]))

let test_pooled_ess () =
  let rng = Rng.create ~seed:6 () in
  let chain () = Array.init 300 (fun _ -> Rng.float_unit rng) in
  let a = chain () and b = chain () in
  let pooled = Statistics.pooled_effective_sample_size [| a; b |] in
  let expect =
    Statistics.effective_sample_size a +. Statistics.effective_sample_size b
  in
  Alcotest.(check (float 1e-9)) "sum over chains" expect pooled

let test_health_of_accumulator () =
  let w = Welford.create () in
  Welford.add w 1.0;
  Welford.add w Float.nan;
  Welford.add w 2.0;
  (match Health.of_accumulator w with
  | [ Health.Sample_loss (skipped, kept) ] ->
      Alcotest.(check int) "skipped" 1 skipped;
      Alcotest.(check int) "kept" 2 kept
  | vs -> Alcotest.failf "expected one sample-loss, got: %s" (Health.describe vs));
  let clean = Welford.create () in
  Welford.add clean 1.0;
  Alcotest.(check int) "clean accumulator reports nothing" 0
    (List.length (Health.of_accumulator clean))

(* ------------------------------------------------------------------ *)
(* Supervised runs *)
(* ------------------------------------------------------------------ *)

let test_quorum_without_faults () =
  let cfg = sup_config () in
  let r = Supervisor.run ~config:cfg ~seed:7 make_store in
  Alcotest.(check int) "all chains healthy" 4 r.Supervisor.healthy_chains;
  Alcotest.(check bool) "quorum" true (r.Supervisor.status = Supervisor.Quorum);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "healthy verdict" true (is_healthy v);
      Alcotest.(check int) "no restarts" 0 v.Supervisor.restarts;
      Alcotest.(check int) "full run" 36 v.Supervisor.iterations_done;
      Alcotest.(check bool) "no violations" true (v.Supervisor.violations = []))
    r.Supervisor.verdicts;
  Array.iter
    (fun ms -> Alcotest.(check bool) "plausible mean service" true (ms > 0.0 && ms < 1.0))
    r.Supervisor.mean_service;
  (* a second identical run reproduces the estimate bit for bit *)
  let r' = Supervisor.run ~config:cfg ~seed:7 make_store in
  Array.iteri
    (fun q ms ->
      Alcotest.(check int64)
        (Printf.sprintf "deterministic pooled estimate q%d" q)
        (Int64.bits_of_float ms)
        (Int64.bits_of_float r'.Supervisor.mean_service.(q)))
    r.Supervisor.mean_service

(* The headline scenario: four chains, one stalled and one crashed by
   injection. The supervisor must detect both, restart them, and still
   deliver a quorum estimate whose pooled split-R̂ certifies mixing —
   and the unfaulted chains' verdicts must be identical to a fault-free
   run with the same seed. *)
let test_supervised_acceptance () =
  (* long enough post-burn-in windows that split-R̂ over the pooled
     iterates is a real mixing certificate, not autocorrelation noise *)
  let cfg = sup_config ~iterations:160 ~burn_in:80 ~deadline:0.15 ~grace:5.0 () in
  let faults =
    [
      { Fault.chain = 1; at_iteration = 5; kind = Fault.Chain_stall 0.5 };
      { Fault.chain = 2; at_iteration = 8; kind = Fault.Chain_crash };
    ]
  in
  let r = Supervisor.run ~config:cfg ~faults ~seed:7 make_store in
  (* both faults detected and logged against the right chains *)
  Alcotest.(check bool) "stall detected" true
    (has_incident "watchdog" r.Supervisor.verdicts.(1));
  Alcotest.(check bool) "crash detected" true
    (has_incident "crash" r.Supervisor.verdicts.(2));
  Alcotest.(check int) "stalled chain restarted" 1
    r.Supervisor.verdicts.(1).Supervisor.restarts;
  Alcotest.(check int) "crashed chain restarted" 1
    r.Supervisor.verdicts.(2).Supervisor.restarts;
  (* recovery brought everyone home: quorum, all chains complete *)
  Alcotest.(check bool) "quorum after faults" true
    (r.Supervisor.status = Supervisor.Quorum);
  Alcotest.(check bool) "enough healthy chains" true
    (r.Supervisor.healthy_chains >= cfg.Supervisor.min_chains);
  Array.iter
    (fun v ->
      Alcotest.(check bool) "chain recovered" true (is_healthy v);
      Alcotest.(check int) "chain completed" 160 v.Supervisor.iterations_done)
    r.Supervisor.verdicts;
  (* pooled service-rate iterates mix across surviving chains; the
     arrival queue (q0) is excluded per the caveat in [rhat]'s doc *)
  Alcotest.(check bool) "split-Rhat certifies q1" true (r.Supervisor.rhat.(1) < 1.1);
  Alcotest.(check bool) "split-Rhat certifies q2" true (r.Supervisor.rhat.(2) < 1.1);
  Alcotest.(check bool) "pooled ESS positive" true
    (r.Supervisor.ess.(1) > 0.0 && r.Supervisor.ess.(2) > 0.0);
  (* unfaulted chains are bit-for-bit unaffected by the sibling chaos *)
  let control = Supervisor.run ~config:cfg ~seed:7 make_store in
  Alcotest.(check verdict_t) "chain 0 verdict matches fault-free run"
    control.Supervisor.verdicts.(0) r.Supervisor.verdicts.(0);
  Alcotest.(check verdict_t) "chain 3 verdict matches fault-free run"
    control.Supervisor.verdicts.(3) r.Supervisor.verdicts.(3)

(* Latent corruption mid-round: the next Gibbs sweep rewrites every
   unobserved departure, so the damage self-heals before the barrier
   health check — but the poisoned sample was already recorded, and
   the Welford NaN-skip must surface as Sample_loss in the verdict
   instead of vanishing silently. *)
let test_corruption_selfheals_but_is_accounted () =
  let cfg = sup_config ~chains:2 ~min_chains:1 () in
  let faults =
    [ { Fault.chain = 0; at_iteration = 2; kind = Fault.Chain_corrupt_latent } ]
  in
  let r = Supervisor.run ~config:cfg ~faults ~seed:11 make_store in
  Alcotest.(check int) "both chains healthy" 2 r.Supervisor.healthy_chains;
  let v = r.Supervisor.verdicts.(0) in
  Alcotest.(check int) "no restart needed" 0 v.Supervisor.restarts;
  (match v.Supervisor.violations with
  | [ Health.Sample_loss (skipped, kept) ] ->
      Alcotest.(check bool) "poisoned samples skipped" true (skipped >= 1);
      Alcotest.(check bool) "rest kept" true (kept > 0)
  | vs ->
      Alcotest.failf "expected sample-loss accounting, got: %s"
        (Health.describe vs));
  Alcotest.(check bool) "unfaulted chain unaffected" true
    (r.Supervisor.verdicts.(1).Supervisor.violations = [])

(* Corruption landing on the last iteration of a round reaches the
   barrier health check as a NaN latent: the chain is rolled back and
   restarted, and the discarded segment's skip accounting goes with
   it. *)
let test_corruption_at_barrier_restarts () =
  let cfg = sup_config ~chains:2 ~min_chains:1 () in
  let faults =
    [ { Fault.chain = 0; at_iteration = 7; kind = Fault.Chain_corrupt_latent } ]
  in
  let r = Supervisor.run ~config:cfg ~faults ~seed:11 make_store in
  let v = r.Supervisor.verdicts.(0) in
  Alcotest.(check bool) "chain recovered" true (is_healthy v);
  Alcotest.(check int) "one restart" 1 v.Supervisor.restarts;
  Alcotest.(check bool) "health incident logged" true (has_incident "health" v);
  Alcotest.(check bool) "discarded samples leave no residue" true
    (v.Supervisor.violations = []);
  Alcotest.(check int) "chain completed after rollback" 36
    v.Supervisor.iterations_done

(* Restart budget zero: the first crash is terminal and the ensemble
   degrades below quorum instead of failing outright. *)
let test_graceful_degradation () =
  let cfg = sup_config ~chains:2 ~min_chains:2 ~max_restarts:0 () in
  let faults =
    [ { Fault.chain = 1; at_iteration = 3; kind = Fault.Chain_crash } ]
  in
  let r = Supervisor.run ~config:cfg ~faults ~seed:7 make_store in
  Alcotest.(check int) "one survivor" 1 r.Supervisor.healthy_chains;
  Alcotest.(check bool) "degraded, not failed" true
    (r.Supervisor.status = Supervisor.Degraded);
  (match r.Supervisor.verdicts.(1).Supervisor.status with
  | Supervisor.Dead why ->
      Alcotest.(check bool) "cause names the crash" true (contains why "crash")
  | s -> Alcotest.failf "expected dead chain, got %a" Supervisor.pp_chain_status s);
  (* the survivor still produces a usable estimate *)
  Array.iter
    (fun ms -> Alcotest.(check bool) "salvaged estimate" true (ms > 0.0 && ms < 1.0))
    r.Supervisor.mean_service

(* With every chain dead there is no pooled estimate, so the report
   shows the dead chains' causes and no pooled line; a degraded run
   still prints its pooled estimate. *)
let test_failed_report_has_no_pooled_lines () =
  let report ~crashed =
    let cfg = sup_config ~chains:2 ~min_chains:2 ~max_restarts:0 () in
    let faults =
      List.map
        (fun chain -> { Fault.chain; at_iteration = 3; kind = Fault.Chain_crash })
        crashed
    in
    let r = Supervisor.run ~config:cfg ~faults ~seed:7 make_store in
    (r.Supervisor.status, Format.asprintf "%a" Supervisor.pp_result r)
  in
  let status, text = report ~crashed:[ 0; 1 ] in
  Alcotest.(check bool) "failed" true (status = Supervisor.Failed);
  Alcotest.(check bool) "names the dead chains" true (contains text "chain 1: dead:");
  List.iter
    (fun line ->
      Alcotest.(check bool) (Printf.sprintf "no %S line" line) false (contains text line))
    [ "pooled"; "split-Rhat" ];
  let status, text = report ~crashed:[ 1 ] in
  Alcotest.(check bool) "degraded" true (status = Supervisor.Degraded);
  Alcotest.(check bool) "degraded run pools" true (contains text "pooled mean service:")

(* The pool's two metric families, read from the default registry. *)
let pool_domains_started () =
  Supervisor.register_metrics ();
  int_of_float (Metrics.Counter.value (Metrics.Counter.create "qnet_pool_domains_started_total"))

let pool_workers () =
  Supervisor.register_metrics ();
  int_of_float (Metrics.Gauge.value (Metrics.Gauge.create "qnet_pool_workers"))

(* A chain that ignores cancellation past the grace period is
   abandoned: its verdict is Dead, and the rest of the ensemble still
   reaches quorum. The pool replaces the worker the zombie holds, so a
   following run gets the whole pool, and the zombie's worker exits
   once the stall ends. *)
let test_zombie_abandoned () =
  let cfg =
    sup_config ~chains:3 ~min_chains:2 ~deadline:0.05 ~grace:0.02 ()
  in
  let faults =
    [ { Fault.chain = 1; at_iteration = 4; kind = Fault.Chain_stall 0.3 } ]
  in
  (* the pool exists before the count starts, so only a replacement moves it *)
  ignore (Supervisor.run ~config:(sup_config ~chains:1 ~min_chains:1 ()) ~seed:7 make_store);
  let started = pool_domains_started () in
  let r = Supervisor.run ~config:cfg ~faults ~seed:7 make_store in
  (match r.Supervisor.verdicts.(1).Supervisor.status with
  | Supervisor.Dead why ->
      Alcotest.(check bool) "abandonment recorded" true (contains why "abandoned")
  | s ->
      Alcotest.failf "expected abandoned chain, got %a" Supervisor.pp_chain_status s);
  Alcotest.(check int) "two survivors" 2 r.Supervisor.healthy_chains;
  Alcotest.(check bool) "quorum despite the zombie" true
    (r.Supervisor.status = Supervisor.Quorum);
  Alcotest.(check int) "one replacement worker started" (started + 1)
    (pool_domains_started ());
  let next = Supervisor.run ~config:(sup_config ~chains:2 ~min_chains:2 ()) ~seed:8 make_store in
  Alcotest.(check bool) "the next run reaches quorum" true
    (next.Supervisor.status = Supervisor.Quorum);
  Array.iter
    (fun v -> Alcotest.(check bool) "next run's chain healthy" true (is_healthy v))
    next.Supervisor.verdicts;
  (* the zombie returns 0.3 s into its stall; its worker then exits *)
  let rec settle n =
    if pool_workers () <> Pool.size && n > 0 then begin
      Unix.sleepf 0.05;
      settle (n - 1)
    end
  in
  settle 100;
  Alcotest.(check int) "pool back to its size" Pool.size (pool_workers ())

(* The pool is started once: after the first supervised run, runs
   start no domain. *)
let test_pool_domains_bounded () =
  Net_helpers.with_mode `Metrics (fun () ->
      let before = pool_domains_started () in
      let run () =
        ignore
          (Supervisor.run ~config:(sup_config ~chains:2 ~min_chains:1 ~iterations:8 ~burn_in:2 ())
             ~seed:7 make_store
            : Supervisor.result)
      in
      run ();
      let after_first = pool_domains_started () in
      Alcotest.(check bool) "the first run starts at most the pool" true
        (after_first - before <= Pool.size);
      for _ = 2 to 20 do
        run ()
      done;
      Alcotest.(check int) "later runs start no domain" after_first (pool_domains_started ());
      Alcotest.(check int) "the pool keeps its size" Pool.size (pool_workers ()))

(* Four chains on a pool of fewer than four workers: some chains wait
   in the queue through a whole round of the others. A round lasts
   several deadlines and a sweep a small fraction of one, so a queued
   chain judged from its submit time would be flagged stalled. *)
let test_queued_chains_not_stalled () =
  let make_store () =
    let rng = Rng.create ~seed:43 () in
    let _, _, store =
      Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.5) rng (tandem_net ()) 2000
    in
    store
  in
  let iterations = 700 in
  let cfg =
    sup_config ~chains:4 ~min_chains:4 ~iterations ~burn_in:(iterations / 2)
      ~round_iterations:iterations ~deadline:0.1 ~grace:5.0 ()
  in
  let r = Supervisor.run ~config:cfg ~seed:7 make_store in
  Array.iter
    (fun v ->
      Alcotest.(check (list (pair int string))) "no incident" [] v.Supervisor.incidents;
      Alcotest.(check bool) "healthy" true (is_healthy v);
      Alcotest.(check int) "no restart" 0 v.Supervisor.restarts)
    r.Supervisor.verdicts

(* A pool job that waits on other jobs can hold every worker, so a
   supervised run refuses to start inside one. *)
let test_no_run_inside_a_pool_job () =
  let w = Pool.waiter () in
  let outcome = Atomic.make "not run" in
  let job =
    Pool.submit w (fun () ->
        Atomic.set outcome
          (match Supervisor.run ~config:(sup_config ~chains:2 ~min_chains:1 ()) ~seed:7 make_store with
          | _ -> "ran"
          | exception Invalid_argument m -> m))
  in
  while not (Pool.finished job) do
    Pool.wait w ~timeout:1.0
  done;
  Pool.release w;
  Alcotest.(check string) "refused" "Supervisor.run: called from a pool job"
    (Atomic.get outcome)

(* ------------------------------------------------------------------ *)
(* Hub ownership and the shared start *)
(* ------------------------------------------------------------------ *)

module Diagnostics = Qnet_obs.Diagnostics

(* The serve daemon's shards run supervised refits on their own threads
   at once, with metrics on and no hub. Neither run touches the
   process-wide hub, so it shows no chain of theirs rather than the
   chains 0 and 1 of two tenants mixed. *)
let test_runs_without_a_hub_feed_none () =
  Supervisor.register_metrics ();
  Net_helpers.with_mode `Metrics (fun () ->
      let cfg = sup_config ~chains:2 ~min_chains:1 () in
      let outcomes = Array.make 2 "not run" in
      let runs =
        List.init 2 (fun k ->
            Thread.create
              (fun () ->
                let r = Supervisor.run ~config:cfg ~seed:(7 + k) make_store in
                outcomes.(k) <-
                  Format.asprintf "%a" Supervisor.pp_ensemble_status r.Supervisor.status)
              ())
      in
      List.iter Thread.join runs;
      Alcotest.(check (array string))
        "both runs reach quorum" [| "quorum"; "quorum" |] outcomes;
      let s = Diagnostics.snapshot Diagnostics.default in
      Alcotest.(check int) "no chain in the hub" 0 (Array.length s.Diagnostics.chains);
      Alcotest.(check int) "no iterate in the hub" 0 s.Diagnostics.iterations_total)

(* A run given the hub, as qnet_infer's supervised runs are, feeds it
   every chain's iterates and verdicts and publishes its ensemble
   status. *)
let test_run_given_the_hub_feeds_it () =
  Net_helpers.with_mode `Metrics (fun () ->
      let cfg = sup_config ~chains:2 ~min_chains:1 () in
      let r = Supervisor.run ~config:cfg ~diagnostics:Diagnostics.default ~seed:7 make_store in
      Alcotest.(check int) "healthy" 2 r.Supervisor.healthy_chains;
      let s = Diagnostics.snapshot Diagnostics.default in
      Alcotest.(check (list (triple int int string)))
        "every chain, every iteration, its verdict"
        [ (0, 36, "healthy"); (1, 36, "healthy") ]
        (Array.to_list
           (Array.map
              (fun c -> (c.Diagnostics.chain, c.Diagnostics.iterations, c.Diagnostics.status))
              s.Diagnostics.chains));
      Alcotest.(check string) "ensemble status" "quorum" s.Diagnostics.ensemble_status)

let chain_bits (c : Stem.chain) =
  let b = Buffer.create 65536 in
  let s = Store.snapshot c.Stem.store in
  Array.iter (Net_helpers.add_float b) s.Store.s_departure;
  List.iter
    (Array.iter (fun i -> Buffer.add_int64_le b (Int64.of_int i)))
    [ s.Store.s_queue; s.Store.s_rho; s.Store.s_rho_inv; s.Store.s_heads ];
  Net_helpers.add_params b c.Stem.anchor;
  Net_helpers.add_params b c.Stem.params;
  Array.iter (Net_helpers.add_params b) (Array.sub c.Stem.history 0 c.Stem.iteration);
  Array.iter (Buffer.add_int64_le b) (Rng.state c.Stem.rng);
  Printf.sprintf "iteration %d %s" c.Stem.iteration
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* A run builds and initializes one store and starts its other chains
   on copies: a forked chain's latents, anchor and iterate are those of
   its own fresh build and initialization, to the bit, before and after
   a warm-up and a few steps, and sweeping it leaves the first chain's
   store alone. *)
let test_forked_start_is_a_fresh_start () =
  let cfg = (sup_config ()).Supervisor.stem in
  let started id =
    let c, outcome = Stem.start ~id cfg (Rng.create ~seed:(7 + id) ()) (make_store ()) in
    Alcotest.(check bool) "initialized" true (outcome = Ok ());
    c
  in
  let first = started 0 in
  let first_bits = chain_bits first in
  let forked = Stem.fork ~id:1 (Rng.create ~seed:8 ()) first in
  let fresh = started 1 in
  Alcotest.(check string) "starting latents" (chain_bits fresh) (chain_bits forked);
  List.iter
    (fun c ->
      Stem.warmup cfg c;
      for _ = 1 to 4 do
        ignore (Stem.step cfg c : (unit, string) Stdlib.result)
      done)
    [ forked; fresh ];
  Alcotest.(check string) "after warm-up and 4 steps" (chain_bits fresh) (chain_bits forked);
  Alcotest.(check string) "the first chain is untouched" first_bits (chain_bits first);
  let builds = ref 0 in
  let r =
    Supervisor.run ~config:(sup_config ~chains:3 ~min_chains:1 ()) ~seed:7 (fun () ->
        incr builds;
        make_store ())
  in
  Alcotest.(check int) "three healthy chains" 3 r.Supervisor.healthy_chains;
  Alcotest.(check int) "one store build per run" 1 !builds

(* ------------------------------------------------------------------ *)
(* Goldens: the bits of whole seeded runs, committed before Stem.run,
   Runtime and Supervisor shared one StEM step, in plain,
   metrics-enabled and profiled mode.
   No stall: when the watchdog sees one depends on wall time. *)
(* ------------------------------------------------------------------ *)

let supervisor_digest (r : Supervisor.result) =
  let b = Buffer.create 4096 in
  Net_helpers.add_params b r.Supervisor.params;
  List.iter
    (Array.iter (Net_helpers.add_float b))
    [ r.Supervisor.mean_service; r.Supervisor.rhat; r.Supervisor.ess ];
  Array.iter
    (fun v -> Buffer.add_string b (Format.asprintf "%a\n" Supervisor.pp_verdict v))
    r.Supervisor.verdicts;
  Format.asprintf "%a %d %s" Supervisor.pp_ensemble_status r.Supervisor.status
    r.Supervisor.healthy_chains
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let test_golden_fault_free () =
  Net_helpers.check_modes "fault-free Supervisor.run"
    "quorum 4 a8035fa3be97ea3957ece82d8aa82b44" (fun () ->
      supervisor_digest (Supervisor.run ~config:(sup_config ()) ~seed:7 make_store))

(* A crash on chain 1 before its first checkpoint (re-warm from the
   start); a corrupted latent on chain 0 that the next sweep heals
   (sample loss) and one on chain 2 at the end of its second round
   (barrier health check, rollback to the checkpoint at 8). *)
let test_golden_crash_corrupt () =
  let faults =
    [
      { Fault.chain = 1; at_iteration = 5; kind = Fault.Chain_crash };
      { Fault.chain = 0; at_iteration = 2; kind = Fault.Chain_corrupt_latent };
      { Fault.chain = 2; at_iteration = 15; kind = Fault.Chain_corrupt_latent };
    ]
  in
  Net_helpers.check_modes "Supervisor.run with crash and corrupt faults"
    "quorum 4 5e677ae5bab7ebb60566581b85282712" (fun () ->
      supervisor_digest (Supervisor.run ~config:(sup_config ()) ~faults ~seed:7 make_store))

let serve_init = Params.create ~rates:[| 9.0; 14.0; 11.0 |] ~arrival_queue:0

(* Shard.fit_tenant's call on the full rung with the shard's defaults:
   2 chains, quorum 1, 30 iterations in rounds of 7, one restart,
   warm-started. *)
let test_golden_serve_full_refit () =
  let config =
    {
      Supervisor.default_config with
      Supervisor.chains = 2;
      min_chains = 1;
      stem = { Stem.default_config with Stem.iterations = 30; burn_in = 15 };
      round_iterations = 7;
      max_restarts = 1;
    }
  in
  Net_helpers.check_modes "full refit"
    "quorum 2 95979391f8a07df0e6ed03c0095d213d" (fun () ->
      supervisor_digest (Supervisor.run ~config ~init:serve_init ~seed:104762 make_store))

(* Shard.fit_tenant's call on the incremental rung: Online_stem over 2
   windows of 15 iterations, windows of at least 2 tasks,
   warm-started. *)
let test_golden_serve_incremental_refit () =
  Net_helpers.check_modes "incremental refit"
    "2 windows 4163a05afb87249850ccff5f3dfa1e56" (fun () ->
      let trace = Net_helpers.simulate_n (Rng.create ~seed:41 ()) (tandem_net ()) 120 in
      let rng = Rng.create ~seed:104763 () in
      let mask = Obs.mask rng (Obs.Task_fraction 0.5) trace in
      let steps =
        Qnet_core.Online_stem.run
          ~config:{ Qnet_core.Online_stem.num_windows = 2; iterations = 15; min_tasks = 2 }
          ~init:serve_init rng trace ~mask
      in
      let b = Buffer.create 1024 in
      List.iter
        (fun (st : Qnet_core.Online_stem.step) ->
          let t0, t1 = st.Qnet_core.Online_stem.window in
          List.iter (Net_helpers.add_float b) [ t0; t1 ];
          Buffer.add_int64_le b (Int64.of_int st.Qnet_core.Online_stem.num_tasks);
          Net_helpers.add_params b st.Qnet_core.Online_stem.params;
          Array.iter (Net_helpers.add_float b) st.Qnet_core.Online_stem.mean_service)
        steps;
      Array.iter (Buffer.add_int64_le b) (Rng.state rng);
      Printf.sprintf "%d windows %s" (List.length steps)
        (Digest.to_hex (Digest.string (Buffer.contents b))))

(* The chains run the StEM step, so a profile of a supervised run
   shows its phases, not only the sweeps. *)
let test_profile_has_step_phases () =
  let module Prof = Qnet_obs.Prof in
  Net_helpers.with_mode `Profiled (fun () ->
      ignore
        (Supervisor.run ~config:(sup_config ~chains:2 ~min_chains:1 ()) ~seed:7 make_store
          : Supervisor.result));
  let paths = List.map (fun s -> s.Prof.path) (Prof.sites ()) in
  List.iter
    (fun phase ->
      Alcotest.(check bool)
        (Printf.sprintf "a phase path contains %s" phase)
        true
        (List.exists (fun p -> contains p phase) paths))
    [ "stem.warmup"; "stem.iteration;stem.mstep"; "stem.iteration;gibbs.sweep" ]

let test_config_validation () =
  let raises msg f =
    match f () with
    | exception Invalid_argument m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s mentions Supervisor.run" msg)
          true
          (String.length m >= 14 && String.sub m 0 14 = "Supervisor.run")
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  raises "zero chains" (fun () ->
      Supervisor.run
        ~config:{ (sup_config ()) with Supervisor.chains = 0 }
        ~seed:1 make_store);
  raises "quorum above chain count" (fun () ->
      Supervisor.run
        ~config:{ (sup_config ()) with Supervisor.min_chains = 9 }
        ~seed:1 make_store);
  raises "fault out of range" (fun () ->
      Supervisor.run ~config:(sup_config ())
        ~faults:[ { Fault.chain = 7; at_iteration = 0; kind = Fault.Chain_crash } ]
        ~seed:1 make_store);
  raises "negative fault iteration" (fun () ->
      Supervisor.run ~config:(sup_config ())
        ~faults:[ { Fault.chain = 0; at_iteration = -1; kind = Fault.Chain_crash } ]
        ~seed:1 make_store)

let test_chain_fault_parsing () =
  (match Fault.parse_chain_fault "1:stall@5" with
  | Ok { Fault.chain = 1; at_iteration = 5; kind = Fault.Chain_stall _ } -> ()
  | Ok f -> Alcotest.failf "unexpected parse: %s" (Fault.chain_fault_label f)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault.parse_chain_fault "2:stall=0.4@8" with
  | Ok { Fault.kind = Fault.Chain_stall d; _ } ->
      Alcotest.(check (float 1e-12)) "stall duration" 0.4 d
  | Ok f -> Alcotest.failf "unexpected parse: %s" (Fault.chain_fault_label f)
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Fault.parse_chain_fault "0:crash@3" with
  | Ok { Fault.chain = 0; at_iteration = 3; kind = Fault.Chain_crash } -> ()
  | _ -> Alcotest.fail "crash spec");
  (match Fault.parse_chain_fault "3:corrupt@6" with
  | Ok { Fault.kind = Fault.Chain_corrupt_latent; _ } -> ()
  | _ -> Alcotest.fail "corrupt spec");
  (match Fault.parse_chain_fault "nonsense" with
  | Error _ -> ()
  | Ok f -> Alcotest.failf "accepted garbage: %s" (Fault.chain_fault_label f))

let () =
  Alcotest.run "supervisor"
    [
      ( "watchdog",
        [
          Alcotest.test_case "heartbeat lifecycle" `Quick test_watchdog_heartbeat;
          Alcotest.test_case "re-arm preserves beats" `Quick
            test_watchdog_rearm_preserves_beats;
          Alcotest.test_case "age and deadline-miss telemetry" `Quick
            test_watchdog_age_and_misses;
        ] );
      ( "diagnostics",
        [
          Alcotest.test_case "ks outlier scores" `Quick test_ks_outlier_scores;
          Alcotest.test_case "split gelman-rubin" `Quick test_split_gelman_rubin;
          Alcotest.test_case "pooled ess" `Quick test_pooled_ess;
          Alcotest.test_case "welford loss surfaces in health" `Quick
            test_health_of_accumulator;
        ] );
      ( "supervised",
        [
          Alcotest.test_case "quorum without faults" `Quick
            test_quorum_without_faults;
          Alcotest.test_case "stall+crash acceptance" `Quick
            test_supervised_acceptance;
          Alcotest.test_case "corruption self-heals with accounting" `Quick
            test_corruption_selfheals_but_is_accounted;
          Alcotest.test_case "corruption at barrier restarts" `Quick
            test_corruption_at_barrier_restarts;
          Alcotest.test_case "graceful degradation" `Quick
            test_graceful_degradation;
          Alcotest.test_case "failed report has no pooled lines" `Quick
            test_failed_report_has_no_pooled_lines;
          Alcotest.test_case "zombie abandoned" `Quick test_zombie_abandoned;
          Alcotest.test_case "pool started once" `Quick test_pool_domains_bounded;
          Alcotest.test_case "queued chains are not stalled" `Quick
            test_queued_chains_not_stalled;
          Alcotest.test_case "no run inside a pool job" `Quick
            test_no_run_inside_a_pool_job;
          Alcotest.test_case "config validation" `Quick test_config_validation;
          Alcotest.test_case "fault spec parsing" `Quick test_chain_fault_parsing;
          Alcotest.test_case "profile shows the step" `Quick test_profile_has_step_phases;
        ] );
      ( "ownership",
        [
          Alcotest.test_case "runs without a hub feed none" `Quick
            test_runs_without_a_hub_feed_none;
          Alcotest.test_case "a run given the hub feeds it" `Quick
            test_run_given_the_hub_feeds_it;
          Alcotest.test_case "a forked start is a fresh start" `Quick
            test_forked_start_is_a_fresh_start;
        ] );
      ( "golden",
        [
          Alcotest.test_case "fault-free" `Quick test_golden_fault_free;
          Alcotest.test_case "crash and corrupt" `Quick test_golden_crash_corrupt;
          Alcotest.test_case "serve full refit" `Quick test_golden_serve_full_refit;
          Alcotest.test_case "serve incremental refit" `Quick
            test_golden_serve_incremental_refit;
        ] );
    ]
