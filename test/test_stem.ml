(* Tests for stochastic EM, Monte Carlo EM, estimators and
   localization. *)

module Stem = Qnet_core.Stem
module Mcem = Qnet_core.Mcem
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Obs = Qnet_core.Observation
module Estimators = Qnet_core.Estimators
module Localization = Qnet_core.Localization
module Topologies = Qnet_des.Topologies
module Rng = Qnet_prob.Rng
module Trace = Qnet_trace.Trace

let check_close ?(eps = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let tandem_net () = Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 15.0; 12.0 ]

let masked ~seed ~tasks ~frac () =
  let rng = Rng.create ~seed () in
  Net_helpers.masked_store ~scheme:(Obs.Task_fraction frac) rng (tandem_net ()) tasks

let test_initial_guess_reasonable () =
  let _, _, store = masked ~seed:301 ~tasks:400 ~frac:0.2 () in
  let p = Stem.initial_guess store in
  (* lambda guess from the inter-departure counter trick: within 25% *)
  let lam_mean = Params.mean_service p 0 in
  Alcotest.(check bool)
    (Printf.sprintf "lambda guess %.4f near 0.1" lam_mean)
    true
    (lam_mean > 0.075 && lam_mean < 0.125);
  (* service guesses are upper bounds within a small factor *)
  for q = 1 to 2 do
    let g = Params.mean_service p q in
    let truth = if q = 1 then 1.0 /. 15.0 else 1.0 /. 12.0 in
    Alcotest.(check bool)
      (Printf.sprintf "guess q%d = %.4f vs truth %.4f" q g truth)
      true
      (g > 0.3 *. truth && g < 10.0 *. truth)
  done

let test_mle_step_exact_on_full_data () =
  let _, _, store = masked ~seed:302 ~tasks:500 ~frac:1.0 () in
  let prev = Params.create ~rates:[| 1.0; 1.0; 1.0 |] ~arrival_queue:0 in
  let p = Stem.mle_step store ~previous:prev ~min_queue_events:1 in
  (* on fully observed data the M-step is the closed-form MLE; with 500
     tasks it lands near the truth *)
  check_close ~eps:0.015 "lambda" 0.1 (Params.mean_service p 0);
  check_close ~eps:0.01 "mu1" (1.0 /. 15.0) (Params.mean_service p 1);
  check_close ~eps:0.01 "mu2" (1.0 /. 12.0) (Params.mean_service p 2)

let test_mle_step_guard () =
  let _, _, store = masked ~seed:303 ~tasks:10 ~frac:1.0 () in
  let prev = Params.create ~rates:[| 2.0; 3.0; 4.0 |] ~arrival_queue:0 in
  let p = Stem.mle_step store ~previous:prev ~min_queue_events:1000 in
  (* guard keeps previous rates when queues have too few events *)
  for q = 0 to 2 do
    check_close "unchanged" (Params.rate prev q) (Params.rate p q)
  done

let test_mle_step_map_prior_shrinks () =
  let _, _, store = masked ~seed:304 ~tasks:200 ~frac:1.0 () in
  let prev = Params.create ~rates:[| 10.0; 15.0; 12.0 |] ~arrival_queue:0 in
  let mle = Stem.mle_step store ~previous:prev ~min_queue_events:1 in
  (* a huge-prior anchor with a big pseudo-mean drags the estimate *)
  let anchor = Params.create ~rates:[| 0.1; 0.1; 0.1 |] ~arrival_queue:0 in
  let map = Stem.mle_step ~prior:(1.0, anchor) store ~previous:prev ~min_queue_events:1 in
  for q = 0 to 2 do
    Alcotest.(check bool) "prior pulls mean service up" true
      (Params.mean_service map q > Params.mean_service mle q)
  done

let test_stem_recovers_tandem () =
  let _, _, store = masked ~seed:305 ~tasks:600 ~frac:0.1 () in
  let rng = Rng.create ~seed:306 () in
  let result = Stem.run rng store in
  check_close ~eps:0.02 "lambda mean service" 0.1 result.Stem.mean_service.(0);
  check_close ~eps:0.015 "mu1 mean service" (1.0 /. 15.0) result.Stem.mean_service.(1);
  check_close ~eps:0.015 "mu2 mean service" (1.0 /. 12.0) result.Stem.mean_service.(2)

let test_stem_exact_when_fully_observed () =
  let trace, _, store = masked ~seed:307 ~tasks:300 ~frac:1.0 () in
  let rng = Rng.create ~seed:308 () in
  let config = { Stem.default_config with iterations = 5; burn_in = 2; prior_strength = 0.0 } in
  let result = Stem.run ~config rng store in
  (* with everything observed, every iterate equals the closed-form MLE *)
  let mle_service q =
    let s = Trace.service_times trace q in
    Array.fold_left ( +. ) 0.0 s /. float_of_int (Array.length s)
  in
  for q = 0 to 2 do
    check_close ~eps:1e-9
      (Printf.sprintf "exact MLE q%d" q)
      (mle_service q) result.Stem.mean_service.(q)
  done

let test_stem_history_and_llh () =
  let _, _, store = masked ~seed:309 ~tasks:100 ~frac:0.2 () in
  let rng = Rng.create ~seed:310 () in
  let config = { Stem.default_config with iterations = 30; burn_in = 10 } in
  let result = Stem.run ~config rng store in
  Alcotest.(check int) "history length" 30 (Array.length result.Stem.history);
  Alcotest.(check int) "llh length" 30 (Array.length result.Stem.log_likelihood_history);
  Array.iter
    (fun llh ->
      if Float.is_nan llh || llh = neg_infinity then
        Alcotest.fail "log-likelihood must be finite along the run")
    result.Stem.log_likelihood_history

let test_stem_config_validation () =
  let _, _, store = masked ~seed:311 ~tasks:20 ~frac:0.5 () in
  let rng = Rng.create () in
  (match Stem.run ~config:{ Stem.default_config with iterations = 0 } rng store with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "iterations = 0 rejected");
  match
    Stem.run ~config:{ Stem.default_config with iterations = 5; burn_in = 5 } rng store
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "burn_in >= iterations rejected"

let test_stem_deterministic_given_seed () =
  let run seed =
    let _, _, store = masked ~seed:312 ~tasks:100 ~frac:0.2 () in
    let rng = Rng.create ~seed () in
    let config = { Stem.default_config with iterations = 20; burn_in = 5 } in
    (Stem.run ~config rng store).Stem.mean_service
  in
  Alcotest.(check bool) "same seed same answer" true (run 1 = run 1);
  Alcotest.(check bool) "different seed differs" true (run 1 <> run 2)

let test_estimate_waiting_tandem () =
  let trace, _, store = masked ~seed:313 ~tasks:600 ~frac:0.25 () in
  let rng = Rng.create ~seed:314 () in
  let result = Stem.run rng store in
  let w = Stem.estimate_waiting rng store result.Stem.params in
  let true_w q =
    let a = Trace.waiting_times trace q in
    Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)
  in
  for q = 1 to 2 do
    let err = Float.abs (w.(q) -. true_w q) in
    Alcotest.(check bool)
      (Printf.sprintf "queue %d waiting err %.4f" q err)
      true (err < 0.1)
  done

let test_mcem_recovers_tandem () =
  let _, _, store = masked ~seed:315 ~tasks:400 ~frac:0.2 () in
  let rng = Rng.create ~seed:316 () in
  let result = Mcem.run rng store in
  check_close ~eps:0.025 "lambda" 0.1 result.Mcem.mean_service.(0);
  check_close ~eps:0.02 "mu1" (1.0 /. 15.0) result.Mcem.mean_service.(1);
  check_close ~eps:0.02 "mu2" (1.0 /. 12.0) result.Mcem.mean_service.(2)

let test_mcem_config_validation () =
  let _, _, store = masked ~seed:317 ~tasks:20 ~frac:0.5 () in
  let rng = Rng.create () in
  match
    Mcem.run
      ~config:{ Mcem.default_config with sweeps_per_iteration = 2; inner_burn_in = 2 }
      rng store
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "inner burn-in >= sweeps rejected"

(* ------------------------------------------------------------------ *)
(* Goldens: the bits of whole seeded runs, committed before Stem.run,
   Runtime and Supervisor shared one StEM step, in plain,
   metrics-enabled and profiled mode. *)

module Fsm = Qnet_fsm.Fsm
module Network = Qnet_des.Network
module Distributions = Qnet_prob.Distributions

let golden_config = { Stem.default_config with iterations = 30; burn_in = 10; warmup_sweeps = 5 }

let run_digest ?route_fsm ~seed make_store =
  let store = make_store () in
  let rng = Rng.create ~seed () in
  let r = Stem.run ~config:golden_config ?route_fsm rng store in
  Net_helpers.stem_digest ~history:r.Stem.history ~llh:r.Stem.log_likelihood_history
    ~mean_service:r.Stem.mean_service ~params_last:r.Stem.params_last store rng

(* test_gibbs's 1-2-4 paper fixture at 300 tasks, 5% of tasks observed. *)
let three_tier_store =
  let trace =
    lazy
      (let net =
         Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 ()
       in
       let trace = Net_helpers.simulate_n (Rng.create ~seed:1001 ()) net 300 in
       (trace, Obs.mask (Rng.create ~seed:1002 ()) (Obs.Task_fraction 0.05) trace))
  in
  fun () ->
    let trace, mask = Lazy.force trace in
    Store.of_trace ~observed:mask trace

(* test_extensions' balancer: state 1 sends a task to queue 1 with
   probability 0.3 and to queue 2 otherwise. *)
let balancer_fsm =
  Fsm.create ~num_states:3 ~num_queues:3 ~initial:0 ~final:2
    ~transitions:[ (0, [ (1, 1.0) ]); (1, [ (2, 1.0) ]) ]
    ~emissions:[ (0, [ (0, 1.0) ]); (1, [ (1, 0.3); (2, 0.7) ]) ]

let balancer_store () =
  let net =
    Network.create ~fsm:balancer_fsm
      ~service:Distributions.[| Exponential 6.0; Exponential 8.0; Exponential 3.0 |]
      ()
  in
  let trace = Net_helpers.simulate_n (Rng.create ~seed:1011 ()) net 150 in
  let mask = Obs.mask (Rng.create ~seed:1012 ()) (Obs.Task_fraction 0.2) trace in
  Store.of_trace ~observed:mask trace

let test_golden_three_tier () =
  Net_helpers.check_modes "Stem.run three-tier"
    "ee970a46cf24f1a19f9c0c7d2a914d83" (fun () ->
      run_digest ~seed:2024 three_tier_store)

let test_golden_balancer_routes () =
  Net_helpers.check_modes "Stem.run ~route_fsm balancer"
    "2402d15dacfdc16ad19a2ac01ab92178" (fun () ->
      run_digest ~route_fsm:balancer_fsm ~seed:2025 balancer_store)

(* ------------------------------------------------------------------ *)
(* Baseline estimators *)

let test_baseline_mean_observed_service () =
  let trace, mask, _ = masked ~seed:318 ~tasks:500 ~frac:0.3 () in
  let observed = Obs.observed_tasks trace mask in
  let est = Estimators.mean_observed_service trace ~observed_tasks:observed in
  check_close ~eps:0.02 "q1 baseline" (1.0 /. 15.0) est.(1);
  check_close ~eps:0.02 "q2 baseline" (1.0 /. 12.0) est.(2)

let test_baseline_empty_queue_nan () =
  let trace, _, _ = masked ~seed:319 ~tasks:10 ~frac:0.5 () in
  let est = Estimators.mean_observed_service trace ~observed_tasks:[] in
  Alcotest.(check bool) "no tasks -> nan" true (Float.is_nan est.(1))

let test_baseline_response_exceeds_service () =
  let trace, mask, _ = masked ~seed:320 ~tasks:500 ~frac:0.3 () in
  let observed = Obs.observed_tasks trace mask in
  let s = Estimators.mean_observed_service trace ~observed_tasks:observed in
  let r = Estimators.mean_observed_response trace ~observed_tasks:observed in
  for q = 1 to 2 do
    Alcotest.(check bool) "response >= service" true (r.(q) >= s.(q) -. 1e-9)
  done

let test_baseline_counts () =
  let trace, mask, _ = masked ~seed:321 ~tasks:100 ~frac:0.2 () in
  let observed = Obs.observed_tasks trace mask in
  let counts = Estimators.counts_by_queue trace ~observed_tasks:observed in
  Alcotest.(check int) "q1 counts = observed tasks" (List.length observed) counts.(1)

(* ------------------------------------------------------------------ *)
(* Localization *)

let test_localization_load_bottleneck () =
  let reports =
    Localization.analyze
      ~mean_service:[| 0.1; 0.1; 0.1 |]
      ~mean_waiting:[| 0.0; 2.0; 0.1 |]
      ()
  in
  let top = Localization.bottleneck reports in
  Alcotest.(check int) "queue 1 is bottleneck" 1 top.Localization.queue;
  Alcotest.(check bool) "verdict is load" true
    (top.Localization.verdict = Localization.Load_bottleneck)

let test_localization_intrinsic () =
  let reports =
    Localization.analyze
      ~mean_service:[| 0.1; 1.0; 0.1 |]
      ~mean_waiting:[| 0.0; 0.2; 0.05 |]
      ()
  in
  let top = Localization.bottleneck reports in
  Alcotest.(check int) "queue 1" 1 top.Localization.queue;
  Alcotest.(check bool) "verdict intrinsic" true
    (top.Localization.verdict = Localization.Intrinsic_slowness)

let test_localization_exclude_and_shares () =
  let reports =
    Localization.analyze ~exclude:[ 0 ]
      ~mean_service:[| 99.0; 0.2; 0.3 |]
      ~mean_waiting:[| 99.0; 0.1; 0.2 |]
      ()
  in
  Alcotest.(check int) "two reports" 2 (Array.length reports);
  let total = Array.fold_left (fun acc r -> acc +. r.Localization.share_of_delay) 0.0 reports in
  check_close ~eps:1e-9 "shares sum to 1" 1.0 total;
  Alcotest.(check int) "top is queue 2" 2 (Localization.bottleneck reports).Localization.queue

let test_localization_printer () =
  let reports =
    Localization.analyze ~names:[| "q0"; "db"; "web" |]
      ~mean_service:[| 0.0; 0.4; 0.1 |]
      ~mean_waiting:[| 0.0; 1.0; 0.0 |]
      ()
  in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  let s = Format.asprintf "%a" Localization.pp_report reports in
  Alcotest.(check bool) "mentions db" true (contains s "db")

let () =
  Alcotest.run "qnet_stem"
    [
      ( "stem",
        [
          Alcotest.test_case "initial guess" `Quick test_initial_guess_reasonable;
          Alcotest.test_case "M-step exact" `Quick test_mle_step_exact_on_full_data;
          Alcotest.test_case "M-step guard" `Quick test_mle_step_guard;
          Alcotest.test_case "MAP prior direction" `Quick test_mle_step_map_prior_shrinks;
          Alcotest.test_case "recovers tandem" `Slow test_stem_recovers_tandem;
          Alcotest.test_case "exact when fully observed" `Quick
            test_stem_exact_when_fully_observed;
          Alcotest.test_case "history and llh" `Quick test_stem_history_and_llh;
          Alcotest.test_case "config validation" `Quick test_stem_config_validation;
          Alcotest.test_case "seed determinism" `Slow test_stem_deterministic_given_seed;
          Alcotest.test_case "waiting estimation" `Slow test_estimate_waiting_tandem;
        ] );
      ( "golden",
        [
          Alcotest.test_case "three-tier" `Quick test_golden_three_tier;
          Alcotest.test_case "balancer routes" `Quick test_golden_balancer_routes;
        ] );
      ( "mcem",
        [
          Alcotest.test_case "recovers tandem" `Slow test_mcem_recovers_tandem;
          Alcotest.test_case "config validation" `Quick test_mcem_config_validation;
        ] );
      ( "estimators",
        [
          Alcotest.test_case "mean observed service" `Quick
            test_baseline_mean_observed_service;
          Alcotest.test_case "empty -> nan" `Quick test_baseline_empty_queue_nan;
          Alcotest.test_case "response >= service" `Quick
            test_baseline_response_exceeds_service;
          Alcotest.test_case "counts" `Quick test_baseline_counts;
        ] );
      ( "localization",
        [
          Alcotest.test_case "load bottleneck" `Quick test_localization_load_bottleneck;
          Alcotest.test_case "intrinsic slowness" `Quick test_localization_intrinsic;
          Alcotest.test_case "exclude and shares" `Quick test_localization_exclude_and_shares;
          Alcotest.test_case "printer" `Quick test_localization_printer;
        ] );
    ]
