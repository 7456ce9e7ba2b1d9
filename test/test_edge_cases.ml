(* Additional edge-case coverage across the libraries: the small
   behaviours the main suites don't reach. *)

module Rng = Qnet_prob.Rng
module D = Qnet_prob.Distributions
module Piecewise = Qnet_prob.Piecewise
module Stats = Qnet_prob.Statistics
module Fsm = Qnet_fsm.Fsm
module Trace = Qnet_trace.Trace
module Topologies = Qnet_des.Topologies
module Network = Qnet_des.Network
module Workload = Qnet_des.Workload
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Gibbs = Qnet_core.Gibbs
module Stem = Qnet_core.Stem
module Webapp = Qnet_webapp.Webapp

let check_close ?(eps = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

(* ------------------------------------------------------------------ *)
(* Rng edge cases *)

let test_float_range_degenerate () =
  let rng = Rng.create ~seed:901 () in
  check_close "lo = hi" 3.0 (Rng.float_range rng 3.0 3.0);
  check_close "reversed returns lo" 5.0 (Rng.float_range rng 5.0 4.0)

let test_int_bound_one () =
  let rng = Rng.create ~seed:902 () in
  for _ = 1 to 100 do
    Alcotest.(check int) "bound 1" 0 (Rng.int rng 1)
  done

let test_shuffle_empty_and_singleton () =
  let rng = Rng.create ~seed:903 () in
  let empty = [||] in
  Rng.shuffle_in_place rng empty;
  Alcotest.(check int) "empty untouched" 0 (Array.length empty);
  let one = [| 42 |] in
  Rng.shuffle_in_place rng one;
  Alcotest.(check int) "singleton untouched" 42 one.(0)

let test_sample_without_replacement_zero () =
  let rng = Rng.create ~seed:904 () in
  Alcotest.(check (list int)) "k = 0" [] (Rng.sample_without_replacement rng 0 5)

(* ------------------------------------------------------------------ *)
(* Piecewise edge cases *)

let test_piecewise_quantile_extremes () =
  let pw = Piecewise.compile ~lower:1.0 ~upper:4.0 ~linear:(-0.7) ~hinges:[] in
  check_close "p = 0" 1.0 (Piecewise.quantile pw 0.0);
  check_close "p = 1" 4.0 (Piecewise.quantile pw 1.0)

let test_piecewise_log_density_outside () =
  let pw = Piecewise.compile ~lower:0.0 ~upper:1.0 ~linear:1.0 ~hinges:[] in
  Alcotest.(check bool) "left" true (Piecewise.log_density pw (-0.1) = neg_infinity);
  Alcotest.(check bool) "right" true (Piecewise.log_density pw 1.1 = neg_infinity)

let test_piecewise_duplicate_knees_merge () =
  let pw =
    Piecewise.compile ~lower:0.0 ~upper:2.0 ~linear:0.0
      ~hinges:
        [ { Piecewise.knee = 1.0; slope = 1.0 }; { knee = 1.0; slope = 0.5 } ]
  in
  match Piecewise.pieces pw with
  | [ (_, _, r0); (_, _, r1) ] ->
      check_close "first flat" 0.0 r0;
      check_close "merged slopes" 1.5 r1
  | ps -> Alcotest.failf "expected 2 pieces, got %d" (List.length ps)

(* ------------------------------------------------------------------ *)
(* Distribution extremes *)

let test_exponential_extreme_rates () =
  let rng = Rng.create ~seed:905 () in
  let big = D.Exponential 1e9 in
  for _ = 1 to 100 do
    let x = D.sample rng big in
    Alcotest.(check bool) "tiny positive" true (x > 0.0 && x < 1e-6)
  done;
  let small = D.Exponential 1e-9 in
  let x = D.sample rng small in
  Alcotest.(check bool) "huge" true (x > 1.0)

let test_quantile_p_zero_one () =
  check_close "exp p=0" 0.0 (D.quantile (D.Exponential 2.0) 0.0);
  Alcotest.(check bool) "exp p=1" true (D.quantile (D.Exponential 2.0) 1.0 = infinity);
  check_close "uniform p=1" 3.0 (D.quantile (D.Uniform (1.0, 3.0)) 1.0)

let test_cdf_monotone_everywhere () =
  List.iter
    (fun d ->
      let xs = List.init 50 (fun i -> -1.0 +. (0.2 *. float_of_int i)) in
      let rec mono = function
        | a :: (b :: _ as rest) ->
            if D.cdf d a > D.cdf d b +. 1e-12 then
              Alcotest.failf "cdf not monotone for %s" (Format.asprintf "%a" D.pp d)
            else mono rest
        | _ -> ()
      in
      mono xs)
    [
      D.Exponential 1.3;
      D.Gamma (0.7, 2.0);
      D.Lognormal (0.0, 1.5);
      D.Hyperexponential [| (0.2, 0.5); (0.8, 4.0) |];
      D.Truncated_exponential (-2.0, 3.0);
    ]

(* ------------------------------------------------------------------ *)
(* FSM edge cases *)

let test_fsm_sampling_final_state_rejected () =
  let t = Fsm.linear ~queues:[ 0; 1 ] ~num_queues:2 in
  let rng = Rng.create () in
  (match Fsm.sample_transition rng t (Fsm.final t) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "transition from final rejected");
  match Fsm.sample_emission rng t (Fsm.final t) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "emission from final rejected"

let test_fsm_single_hop () =
  let t = Fsm.linear ~queues:[ 0 ] ~num_queues:1 in
  let rng = Rng.create ~seed:906 () in
  Alcotest.(check (list (pair int int))) "empty path" [] (Fsm.sample_path rng t)

(* ------------------------------------------------------------------ *)
(* Network / workload edge cases *)

let test_network_name_defaults () =
  let net = Topologies.tandem ~arrival_rate:1.0 ~service_rates:[ 2.0 ] in
  Alcotest.(check string) "default name" "q1" (Network.name net 1)

let test_with_service_validates () =
  let net = Topologies.tandem ~arrival_rate:1.0 ~service_rates:[ 2.0 ] in
  match Network.with_service net 1 (D.Exponential 0.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "invalid distribution rejected"

let test_simulate_zero_tasks () =
  let net = Topologies.tandem ~arrival_rate:1.0 ~service_rates:[ 2.0 ] in
  let rng = Rng.create ~seed:907 () in
  match Network.simulate rng net ~entries:[||] with
  | exception Invalid_argument _ -> () (* empty trace rejected downstream *)
  | trace -> Alcotest.(check int) "no events" 0 (Array.length trace.Trace.events)

let test_workload_negative_count () =
  let rng = Rng.create () in
  match Workload.generate rng (Workload.Poisson 1.0) (-1) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative count rejected"

(* ------------------------------------------------------------------ *)
(* Gibbs with Event_fraction masks (arrivals observed independently) *)

let test_gibbs_event_fraction_masks () =
  let rng = Rng.create ~seed:908 () in
  let net = Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 9.0; 8.0 ] in
  let trace = Net_helpers.simulate_n rng net 200 in
  let mask = Obs.mask rng (Obs.Event_fraction 0.3) trace in
  let store = Store.of_trace ~observed:mask trace in
  let params = Params.create ~rates:[| 6.0; 9.0; 8.0 |] ~arrival_queue:0 in
  for _ = 1 to 10 do
    Gibbs.sweep ~shuffle:true rng store params;
    match Store.validate store with
    | Ok () -> ()
    | Error m -> Alcotest.failf "event-fraction sweep invalid: %s" m
  done

let test_stem_event_fraction_recovers () =
  let rng = Rng.create ~seed:909 () in
  let net = Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 15.0; 12.0 ] in
  let trace = Net_helpers.simulate_n rng net 500 in
  let mask = Obs.mask rng (Obs.Event_fraction 0.25) trace in
  let store = Store.of_trace ~observed:mask trace in
  let result = Stem.run rng store in
  check_close ~eps:0.02 "mu1 under event-level masking" (1.0 /. 15.0)
    result.Stem.mean_service.(1)

(* ------------------------------------------------------------------ *)
(* StEM odds and ends *)

let test_stem_prior_strength_zero_is_plain_mle () =
  let rng = Rng.create ~seed:910 () in
  let net = Topologies.tandem ~arrival_rate:8.0 ~service_rates:[ 12.0 ] in
  let trace = Net_helpers.simulate_n rng net 300 in
  let mask = Obs.mask rng (Obs.Task_fraction 1.0) trace in
  let store = Store.of_trace ~observed:mask trace in
  let config = { Stem.default_config with Stem.prior_strength = 0.0; iterations = 3; burn_in = 1 } in
  let result = Stem.run ~config rng store in
  (* fully observed + no prior => exact MLE *)
  let s = Trace.service_times trace 1 in
  let mle = Array.fold_left ( +. ) 0.0 s /. float_of_int (Array.length s) in
  check_close ~eps:1e-9 "plain MLE" mle result.Stem.mean_service.(1)

let test_estimate_waiting_validation () =
  let rng = Rng.create ~seed:911 () in
  let net = Topologies.tandem ~arrival_rate:8.0 ~service_rates:[ 12.0 ] in
  let trace = Net_helpers.simulate_n rng net 50 in
  let store = Store.of_trace trace in
  let params = Params.create ~rates:[| 8.0; 12.0 |] ~arrival_queue:0 in
  match Stem.estimate_waiting ~sweeps:5 ~burn_in:5 rng store params with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "burn_in >= sweeps rejected"

(* ------------------------------------------------------------------ *)
(* Webapp corners *)

let test_webapp_ground_truth_q0 () =
  let c = Webapp.default_config in
  let g = Webapp.ground_truth_mean_service c in
  (* q0's "service" is the mean interarrival of the ramp: 2/peak *)
  check_close ~eps:1e-9 "q0 ramp mean" (2.0 /. c.Webapp.peak_rate) g.(0)

let test_webapp_queue_kind_out_of_range () =
  match Webapp.queue_kind Webapp.default_config 99 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out of range rejected"

(* ------------------------------------------------------------------ *)
(* piecewise overflow guard *)

let test_piecewise_mean_extreme_slope () =
  (* a slope steep enough that exp (r * w) would overflow: the mean
     must still be finite and near the right edge *)
  let pw = Piecewise.compile ~lower:0.0 ~upper:1.0 ~linear:2000.0 ~hinges:[] in
  let m = Piecewise.mean pw in
  Alcotest.(check bool) (Printf.sprintf "finite mean %.6f" m) true
    (Float.is_finite m && m > 0.99 && m <= 1.0)

(* ------------------------------------------------------------------ *)
(* interval report validation *)

let test_interval_posterior_validation () =
  let rng = Rng.create ~seed:915 () in
  let net = Topologies.tandem ~arrival_rate:8.0 ~service_rates:[ 12.0 ] in
  let trace = Net_helpers.simulate_n rng net 30 in
  let store = Store.of_trace trace in
  let params = Params.create ~rates:[| 8.0; 12.0 |] ~arrival_queue:0 in
  match
    Qnet_core.Interval_report.posterior ~sweeps:5 ~burn_in:5 rng store params
      ~window:(0.0, 1.0)
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "burn_in >= sweeps rejected"

(* ------------------------------------------------------------------ *)
(* mmpp validation *)

let test_mmpp_validation () =
  let rng = Rng.create () in
  match
    Workload.generate rng
      (Workload.Mmpp2 { rate0 = 1.0; rate1 = 2.0; switch01 = 0.0; switch10 = 1.0 })
      1
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero switching rate rejected"

(* ------------------------------------------------------------------ *)
(* statistics corners *)

let test_quantile_singleton () =
  check_close "singleton" 7.0 (Stats.quantile [| 7.0 |] 0.3)

let test_histogram_constant_data () =
  let h = Stats.histogram ~bins:4 (Array.make 10 2.5) in
  let total = Array.fold_left (fun acc (_, _, c) -> acc + c) 0 h in
  Alcotest.(check int) "all counted" 10 total

let test_variance_short_input () =
  Alcotest.(check bool) "n=1 variance nan" true (Float.is_nan (Stats.variance [| 1.0 |]));
  Alcotest.(check bool) "empty mean nan" true (Float.is_nan (Stats.mean [||]))

let () =
  Alcotest.run "qnet_edge_cases"
    [
      ( "rng",
        [
          Alcotest.test_case "float_range degenerate" `Quick test_float_range_degenerate;
          Alcotest.test_case "int bound 1" `Quick test_int_bound_one;
          Alcotest.test_case "shuffle tiny arrays" `Quick test_shuffle_empty_and_singleton;
          Alcotest.test_case "sample k=0" `Quick test_sample_without_replacement_zero;
        ] );
      ( "piecewise",
        [
          Alcotest.test_case "quantile extremes" `Quick test_piecewise_quantile_extremes;
          Alcotest.test_case "density outside support" `Quick
            test_piecewise_log_density_outside;
          Alcotest.test_case "duplicate knees" `Quick test_piecewise_duplicate_knees_merge;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "extreme rates" `Quick test_exponential_extreme_rates;
          Alcotest.test_case "quantile p in {0,1}" `Quick test_quantile_p_zero_one;
          Alcotest.test_case "cdf monotone" `Quick test_cdf_monotone_everywhere;
        ] );
      ( "fsm",
        [
          Alcotest.test_case "final state guarded" `Quick
            test_fsm_sampling_final_state_rejected;
          Alcotest.test_case "single hop" `Quick test_fsm_single_hop;
        ] );
      ( "network",
        [
          Alcotest.test_case "default names" `Quick test_network_name_defaults;
          Alcotest.test_case "with_service validates" `Quick test_with_service_validates;
          Alcotest.test_case "zero tasks" `Quick test_simulate_zero_tasks;
          Alcotest.test_case "negative workload count" `Quick test_workload_negative_count;
        ] );
      ( "event-fraction",
        [
          Alcotest.test_case "gibbs sweeps valid" `Quick test_gibbs_event_fraction_masks;
          Alcotest.test_case "stem recovers" `Slow test_stem_event_fraction_recovers;
        ] );
      ( "stem",
        [
          Alcotest.test_case "prior 0 = plain MLE" `Quick
            test_stem_prior_strength_zero_is_plain_mle;
          Alcotest.test_case "waiting validation" `Quick test_estimate_waiting_validation;
        ] );
      ( "webapp",
        [
          Alcotest.test_case "q0 ground truth" `Quick test_webapp_ground_truth_q0;
          Alcotest.test_case "queue kind range" `Quick test_webapp_queue_kind_out_of_range;
        ] );
      ( "guards",
        [
          Alcotest.test_case "piecewise mean overflow" `Quick
            test_piecewise_mean_extreme_slope;
          Alcotest.test_case "interval posterior validation" `Quick
            test_interval_posterior_validation;
          Alcotest.test_case "mmpp validation" `Quick test_mmpp_validation;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "singleton quantile" `Quick test_quantile_singleton;
          Alcotest.test_case "constant histogram" `Quick test_histogram_constant_data;
          Alcotest.test_case "short inputs" `Quick test_variance_short_input;
        ] );
    ]
