(* Tests for the general-service extension: distribution fitting,
   slice sampling, the general Gibbs kernel, and general StEM. *)

module Rng = Qnet_prob.Rng
module D = Qnet_prob.Distributions
module Fitting = Qnet_prob.Fitting
module Slice = Qnet_prob.Slice
module Stats = Qnet_prob.Statistics
module Special = Qnet_prob.Special
module Topologies = Qnet_des.Topologies
module Network = Qnet_des.Network
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Gibbs = Qnet_core.Gibbs
module Service_model = Qnet_core.Service_model
module General_gibbs = Qnet_core.General_gibbs
module General_stem = Qnet_core.General_stem

let check_close ?(eps = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let check_rel ?(eps = 0.05) name expected actual =
  let denom = Float.max (Float.abs expected) 1e-30 in
  if Float.abs (expected -. actual) /. denom > eps then
    Alcotest.failf "%s: expected %.6g, got %.6g" name expected actual

(* ------------------------------------------------------------------ *)
(* digamma / trigamma *)

let test_digamma_known () =
  (* psi(1) = -gamma (Euler–Mascheroni) *)
  check_close ~eps:1e-10 "psi(1)" (-0.5772156649015329) (Special.digamma 1.0);
  (* psi(1/2) = -gamma - 2 ln 2 *)
  check_close ~eps:1e-10 "psi(1/2)"
    (-0.5772156649015329 -. (2.0 *. log 2.0))
    (Special.digamma 0.5);
  (* recurrence psi(x+1) = psi(x) + 1/x *)
  let x = 2.3 in
  check_close ~eps:1e-12 "recurrence"
    (Special.digamma x +. (1.0 /. x))
    (Special.digamma (x +. 1.0));
  (* matches the derivative of log_gamma numerically *)
  let h = 1e-6 in
  check_close ~eps:1e-5 "derivative of log_gamma"
    ((Special.log_gamma (4.0 +. h) -. Special.log_gamma (4.0 -. h)) /. (2.0 *. h))
    (Special.digamma 4.0)

let test_trigamma_known () =
  (* psi'(1) = pi^2/6 *)
  check_close ~eps:1e-10 "psi'(1)" (Float.pi *. Float.pi /. 6.0) (Special.trigamma 1.0);
  let x = 3.7 in
  check_close ~eps:1e-12 "recurrence"
    (Special.trigamma x -. (1.0 /. (x *. x)))
    (Special.trigamma (x +. 1.0));
  let h = 1e-5 in
  check_close ~eps:1e-5 "derivative of digamma"
    ((Special.digamma (4.0 +. h) -. Special.digamma (4.0 -. h)) /. (2.0 *. h))
    (Special.trigamma 4.0)

(* ------------------------------------------------------------------ *)
(* fitting *)

let samples_of rng d n = Array.init n (fun _ -> D.sample rng d)

let test_fit_exponential () =
  let rng = Rng.create ~seed:701 () in
  let xs = samples_of rng (D.Exponential 3.0) 50_000 in
  match Fitting.fit_exponential xs with
  | D.Exponential r -> check_rel ~eps:0.02 "rate" 3.0 r
  | _ -> Alcotest.fail "wrong family"

let test_fit_erlang () =
  let rng = Rng.create ~seed:702 () in
  let xs = samples_of rng (D.Erlang (3, 6.0)) 50_000 in
  match Fitting.fit_erlang ~shape:3 xs with
  | D.Erlang (3, r) -> check_rel ~eps:0.02 "rate" 6.0 r
  | _ -> Alcotest.fail "wrong family"

let test_fit_lognormal () =
  let rng = Rng.create ~seed:703 () in
  let xs = samples_of rng (D.Lognormal (0.4, 0.7)) 50_000 in
  match Fitting.fit_lognormal xs with
  | D.Lognormal (mu, sigma) ->
      check_rel ~eps:0.03 "mu" 0.4 mu;
      check_rel ~eps:0.03 "sigma" 0.7 sigma
  | _ -> Alcotest.fail "wrong family"

let test_fit_gamma () =
  let rng = Rng.create ~seed:704 () in
  let xs = samples_of rng (D.Gamma (2.5, 4.0)) 50_000 in
  match Fitting.fit_gamma xs with
  | D.Gamma (k, r) ->
      check_rel ~eps:0.04 "shape" 2.5 k;
      check_rel ~eps:0.04 "rate" 4.0 r
  | _ -> Alcotest.fail "wrong family"

let test_fit_gamma_exponential_data () =
  (* gamma fit on exponential data should find shape ~ 1 *)
  let rng = Rng.create ~seed:705 () in
  let xs = samples_of rng (D.Exponential 2.0) 50_000 in
  match Fitting.fit_gamma xs with
  | D.Gamma (k, _) -> check_rel ~eps:0.05 "shape ~ 1" 1.0 k
  | _ -> Alcotest.fail "wrong family"

let test_fit_rejects_bad_samples () =
  (match Fitting.fit_exponential [||] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty rejected");
  match Fitting.fit_lognormal [| 1.0; -2.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative rejected"

let test_aic_selects_true_family () =
  let rng = Rng.create ~seed:706 () in
  let xs = samples_of rng (D.Lognormal (0.0, 1.0)) 20_000 in
  let ln = Fitting.fit_lognormal xs in
  let ex = Fitting.fit_exponential xs in
  let aic_ln = Fitting.aic ln ~num_params:2 xs in
  let aic_ex = Fitting.aic ex ~num_params:1 xs in
  Alcotest.(check bool)
    (Printf.sprintf "AIC lognormal %.0f < exponential %.0f" aic_ln aic_ex)
    true (aic_ln < aic_ex)

(* ------------------------------------------------------------------ *)
(* slice sampling *)

let slice_chain rng ~log_density ~lower ~upper ~start n =
  let xs = Array.make n 0.0 in
  let x = ref start in
  for i = 0 to n - 1 do
    x := Slice.step rng ~log_density ~lower ~upper ~current:!x;
    xs.(i) <- !x
  done;
  xs

let test_slice_uniform () =
  let rng = Rng.create ~seed:707 () in
  let xs =
    slice_chain rng ~log_density:(fun _ -> 0.0) ~lower:2.0 ~upper:5.0 ~start:3.0 20_000
  in
  let ks =
    Stats.ks_statistic_against xs (fun x ->
        if x <= 2.0 then 0.0 else if x >= 5.0 then 1.0 else (x -. 2.0) /. 3.0)
  in
  (* slice chains are autocorrelated: use a loose threshold *)
  Alcotest.(check bool) (Printf.sprintf "uniform KS %.4f" ks) true (ks < 0.03)

let test_slice_truncated_normal () =
  let rng = Rng.create ~seed:708 () in
  let log_density x = -0.5 *. x *. x in
  let xs = slice_chain rng ~log_density ~lower:(-1.0) ~upper:2.0 ~start:0.0 30_000 in
  let z = Special.std_normal_cdf 2.0 -. Special.std_normal_cdf (-1.0) in
  let cdf x = (Special.std_normal_cdf x -. Special.std_normal_cdf (-1.0)) /. z in
  let ks = Stats.ks_statistic_against xs cdf in
  Alcotest.(check bool) (Printf.sprintf "trunc-normal KS %.4f" ks) true (ks < 0.03)

let test_slice_matches_piecewise () =
  (* target: piecewise exponential; compare slice samples to the exact
     sampler's CDF *)
  let pw =
    Qnet_prob.Piecewise.compile ~lower:0.0 ~upper:2.0 ~linear:(-1.5)
      ~hinges:[ { Qnet_prob.Piecewise.knee = 0.8; slope = 3.0 } ]
  in
  let rng = Rng.create ~seed:709 () in
  let xs =
    slice_chain rng
      ~log_density:(Qnet_prob.Piecewise.log_density pw)
      ~lower:0.0 ~upper:2.0 ~start:1.0 30_000
  in
  let ks = Stats.ks_statistic_against xs (Qnet_prob.Piecewise.cdf pw) in
  Alcotest.(check bool) (Printf.sprintf "piecewise KS %.4f" ks) true (ks < 0.03)

let test_slice_rejects_bad_current () =
  let rng = Rng.create () in
  match
    Slice.step rng ~log_density:(fun _ -> 0.0) ~lower:0.0 ~upper:1.0 ~current:2.0
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "outside current rejected"

(* ------------------------------------------------------------------ *)
(* service model *)

let test_service_model_validation () =
  (match
     Service_model.create ~services:[| D.Exponential 1.0; D.Deterministic 2.0 |]
       ~arrival_queue:0
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "deterministic rejected");
  match
    Service_model.create ~services:[| D.Exponential 1.0; D.Normal (1.0, 1.0) |]
      ~arrival_queue:0
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "normal rejected"

let test_service_model_roundtrip () =
  let p = Params.create ~rates:[| 2.0; 5.0 |] ~arrival_queue:0 in
  let m = Service_model.of_params p in
  check_close "mean 0" 0.5 (Service_model.mean_service m 0);
  let p' = Service_model.to_params_approx m in
  check_close "rate roundtrip" 5.0 (Params.rate p' 1)

(* ------------------------------------------------------------------ *)
(* general Gibbs kernel *)

let masked_tandem ~seed ~tasks ~frac =
  let rng = Rng.create ~seed () in
  let net = Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 8.0; 7.0 ] in
  Net_helpers.masked_store ~scheme:(Obs.Task_fraction frac) rng net tasks

let test_window_matches_exponential_kernel () =
  let _, _, store = masked_tandem ~seed:710 ~tasks:80 ~frac:0.2 in
  let params = Params.create ~rates:[| 6.0; 8.0; 7.0 |] ~arrival_queue:0 in
  Array.iter
    (fun f ->
      let ld = Gibbs.local_density store params f in
      let lo, hi = General_gibbs.window store f in
      check_close "lower" ld.Gibbs.lower lo;
      match (ld.Gibbs.upper, hi) with
      | None, None -> ()
      | Some a, Some b -> check_close "upper" a b
      | _ -> Alcotest.failf "window shape mismatch on event %d" f)
    (Store.unobserved_events store)

let test_general_conditional_matches_exponential () =
  (* with exponential services, the general log-conditional must equal
     the exponential kernel's (up to a constant) *)
  let _, _, store = masked_tandem ~seed:711 ~tasks:60 ~frac:0.2 in
  let params = Params.create ~rates:[| 6.0; 8.0; 7.0 |] ~arrival_queue:0 in
  let model = Service_model.of_params params in
  let rng = Rng.create ~seed:712 () in
  Array.iter
    (fun f ->
      let ld = Gibbs.local_density store params f in
      match ld.Gibbs.upper with
      | None -> ()
      | Some u ->
          let w = u -. ld.Gibbs.lower in
          if w > 1e-6 then begin
            let x0 = ld.Gibbs.lower +. (0.3 *. w) in
            let x1 = ld.Gibbs.lower +. (0.7 *. w) in
            ignore (Rng.float_unit rng);
            let d_general =
              General_gibbs.log_conditional store model f x1
              -. General_gibbs.log_conditional store model f x0
            in
            let d_exp = Gibbs.log_conditional ld x1 -. Gibbs.log_conditional ld x0 in
            check_close ~eps:1e-6
              (Printf.sprintf "event %d conditional" f)
              d_exp d_general
          end)
    (Store.unobserved_events store)

let test_general_joint_consistency () =
  (* log-conditional differences equal joint log-likelihood differences
     under a genuinely non-exponential model *)
  let rng = Rng.create ~seed:713 () in
  let net = Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 8.0; 7.0 ] in
  let _, _, store = Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.3) rng net 50 in
  let model =
    Service_model.create
      ~services:
        [| D.Exponential 6.0; D.Gamma (2.0, 16.0); D.Lognormal (-2.1, 0.6) |]
      ~arrival_queue:0
  in
  let joint () =
    let acc = ref 0.0 in
    for i = 0 to Store.num_events store - 1 do
      acc := !acc +. Service_model.log_pdf model (Store.queue store i) (Store.service store i)
    done;
    !acc
  in
  let checked = ref 0 in
  Array.iter
    (fun f ->
      let lo, hi = General_gibbs.window store f in
      match hi with
      | None -> ()
      | Some u when u -. lo > 1e-6 ->
          let original = Store.departure store f in
          let x0 = lo +. (0.31 *. (u -. lo)) in
          let x1 = lo +. (0.72 *. (u -. lo)) in
          Store.set_departure store f x0;
          let j0 = joint () in
          let c0 = General_gibbs.log_conditional store model f x0 in
          Store.set_departure store f x1;
          let j1 = joint () in
          let c1 = General_gibbs.log_conditional store model f x1 in
          Store.set_departure store f original;
          if Float.is_finite (j0 -. j1) then begin
            incr checked;
            check_close ~eps:1e-6
              (Printf.sprintf "event %d" f)
              (j1 -. j0) (c1 -. c0)
          end
      | Some _ -> ())
    (Store.unobserved_events store);
  Alcotest.(check bool) (Printf.sprintf "checked %d" !checked) true (!checked > 30)

let test_general_sweep_preserves_feasibility () =
  let rng = Rng.create ~seed:714 () in
  let net = Topologies.three_tier ~arrival_rate:8.0 ~tier_sizes:(2, 1, 2) ~service_rate:6.0 () in
  let _, _, store = Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.1) rng net 150 in
  let model =
    Service_model.create
      ~services:(Array.init 6 (fun q -> if q = 0 then D.Exponential 8.0 else D.Gamma (1.5, 9.0)))
      ~arrival_queue:0
  in
  for _ = 1 to 15 do
    General_gibbs.sweep rng store model;
    match Store.validate store with
    | Ok () -> ()
    | Error m -> Alcotest.failf "general sweep broke feasibility: %s" m
  done

let test_general_invariance_exponential_case () =
  (* with the true exponential model, imputed service means must stay
     near the truth (same test as the exact kernel) *)
  let rng = Rng.create ~seed:715 () in
  let net = Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 15.0; 12.0 ] in
  let _, _, store = Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.1) rng net 600 in
  let model =
    Service_model.create
      ~services:[| D.Exponential 10.0; D.Exponential 15.0; D.Exponential 12.0 |]
      ~arrival_queue:0
  in
  let acc = Array.make 3 0.0 in
  let sweeps = 120 and burn = 40 in
  for s = 1 to sweeps do
    General_gibbs.sweep rng store model;
    if s > burn then begin
      let means = Store.mean_service_by_queue store in
      Array.iteri (fun q v -> acc.(q) <- acc.(q) +. (v /. float_of_int (sweeps - burn))) means
    end
  done;
  check_close ~eps:0.012 "q0" 0.1 acc.(0);
  check_close ~eps:0.01 "q1" (1.0 /. 15.0) acc.(1);
  check_close ~eps:0.01 "q2" (1.0 /. 12.0) acc.(2)

(* Whole-chain stationarity of the slice kernel, started at the truth
   (after Geweke, "Getting it right", JASA 2004), as test_gibbs's
   [stationarity] group checks the exact kernel. The network is A5's
   tandem, whose second station serves lognormally, and the model is
   the true one. A simulated trace is one draw of the latent departures
   from the posterior a sweep targets, so a sweep that leaves that
   posterior invariant keeps per-queue mean service and mean waiting
   distributed as the truth's. The swept states of the even replicates
   are compared with the truth of the odd ones, so the two samples are
   independent, by a two-sample KS test at distance <= 2.1 sqrt(2/n). *)
let test_general_stationary () =
  let net =
    Network.with_service
      (Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 10.0; 10.0 ])
      2 (D.Lognormal (-2.4, 0.9))
  in
  let model = Service_model.of_network net in
  let stats store =
    Array.append (Store.mean_service_by_queue store) (Store.mean_waiting_by_queue store)
  in
  let replicates = 4000 and sweeps = 10 in
  let rng = Rng.create ~seed:720 () in
  let truth = Array.make replicates [||] and swept = Array.make replicates [||] in
  for r = 0 to replicates - 1 do
    let _, _, store = Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.25) rng net 10 in
    truth.(r) <- stats store;
    General_gibbs.run ~sweeps rng store model;
    swept.(r) <- stats store
  done;
  let half = replicates / 2 in
  let critical = 2.1 *. sqrt (2.0 /. float_of_int half) in
  for s = 0 to Array.length truth.(0) - 1 do
    let a = Array.init half (fun i -> swept.(2 * i).(s)) in
    let b = Array.init half (fun i -> truth.((2 * i) + 1).(s)) in
    let d = Stats.ks_two_sample a b in
    if d > critical then
      Alcotest.failf "statistic %d: KS %.4f > %.4f after %d sweeps" s d critical sweeps
  done

(* ------------------------------------------------------------------ *)
(* general StEM *)

let test_general_stem_recovers_lognormal () =
  let rng = Rng.create ~seed:716 () in
  let net = Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 9.0; 9.0 ] in
  (* true service at q1 is lognormal with mean exp(-2.3 + 0.18) = .12 *)
  let net = Network.with_service net 1 (D.Lognormal (-2.3, 0.6)) in
  let trace = Network.simulate_poisson rng net ~num_tasks:600 in
  let mask = Obs.mask rng (Obs.Task_fraction 0.25) trace in
  let store = Store.of_trace ~observed:mask trace in
  let families =
    [| General_stem.Exponential; General_stem.Lognormal; General_stem.Exponential |]
  in
  let result = General_stem.run ~families rng store in
  let truth = D.mean (D.Lognormal (-2.3, 0.6)) in
  check_rel ~eps:0.15 "lognormal mean service" truth result.General_stem.mean_service.(1);
  (match Service_model.service result.General_stem.model 1 with
  | D.Lognormal (_, sigma) ->
      (* shape recovered within a factor ~2 at this observation level *)
      Alcotest.(check bool) (Printf.sprintf "sigma %.3f" sigma) true
        (sigma > 0.25 && sigma < 1.2)
  | d -> Alcotest.failf "wrong family: %s" (Format.asprintf "%a" D.pp d))

let test_general_stem_exponential_matches_stem () =
  let rng1 = Rng.create ~seed:717 () in
  let net = Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 14.0 ] in
  let trace = Network.simulate_poisson rng1 net ~num_tasks:400 in
  let mask = Obs.mask rng1 (Obs.Task_fraction 0.2) trace in
  let s1 = Store.of_trace ~observed:mask trace in
  let s2 = Store.of_trace ~observed:mask trace in
  let general =
    General_stem.run
      ~families:[| General_stem.Exponential; General_stem.Exponential |]
      (Rng.create ~seed:718 ()) s1
  in
  let classic = Qnet_core.Stem.run (Rng.create ~seed:718 ()) s2 in
  check_close ~eps:0.01 "same estimate (q1)"
    classic.Qnet_core.Stem.mean_service.(1)
    general.General_stem.mean_service.(1)

let test_select_families () =
  (* strong lognormal truth at q2 should be detected by AIC; the
     exponential q1 should stay exponential *)
  let rng = Rng.create ~seed:719 () in
  let net = Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 9.0; 9.0 ] in
  let net = Network.with_service net 2 (D.Lognormal (-2.3, 1.1)) in
  let trace = Network.simulate_poisson rng net ~num_tasks:500 in
  let mask = Obs.mask rng (Obs.Task_fraction 0.5) trace in
  let store = Store.of_trace ~observed:mask trace in
  let families = General_stem.select_families rng store in
  (* the pilot imputation smears the shape, so requiring the exact
     family is too strict; but the strongly non-exponential queue must
     get a 2-parameter family *)
  Alcotest.(check bool) "q2 gets a flexible family" true
    (List.mem (General_stem.family_name families.(2)) [ "lognormal"; "gamma" ]);
  Alcotest.(check bool) "q2 not plain exponential" true
    (General_stem.family_name families.(2) <> "exponential")

let test_general_stem_config_validation () =
  let rng = Rng.create () in
  let net = Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 9.0 ] in
  let trace = Network.simulate_poisson rng net ~num_tasks:20 in
  let store = Store.of_trace trace in
  (match General_stem.run ~families:[| General_stem.Exponential |] rng store with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "family arity checked");
  match
    General_stem.run
      ~config:{ General_stem.default_config with General_stem.iterations = 0 }
      ~families:[| General_stem.Exponential; General_stem.Exponential |]
      rng store
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "iterations checked"

let () =
  Alcotest.run "qnet_general"
    [
      ( "special",
        [
          Alcotest.test_case "digamma" `Quick test_digamma_known;
          Alcotest.test_case "trigamma" `Quick test_trigamma_known;
        ] );
      ( "fitting",
        [
          Alcotest.test_case "exponential" `Slow test_fit_exponential;
          Alcotest.test_case "erlang" `Slow test_fit_erlang;
          Alcotest.test_case "lognormal" `Slow test_fit_lognormal;
          Alcotest.test_case "gamma" `Slow test_fit_gamma;
          Alcotest.test_case "gamma on exponential data" `Slow
            test_fit_gamma_exponential_data;
          Alcotest.test_case "input validation" `Quick test_fit_rejects_bad_samples;
          Alcotest.test_case "AIC family selection" `Slow test_aic_selects_true_family;
        ] );
      ( "slice",
        [
          Alcotest.test_case "uniform target" `Slow test_slice_uniform;
          Alcotest.test_case "truncated normal" `Slow test_slice_truncated_normal;
          Alcotest.test_case "piecewise target" `Slow test_slice_matches_piecewise;
          Alcotest.test_case "input validation" `Quick test_slice_rejects_bad_current;
        ] );
      ( "service-model",
        [
          Alcotest.test_case "validation" `Quick test_service_model_validation;
          Alcotest.test_case "params roundtrip" `Quick test_service_model_roundtrip;
        ] );
      ( "general-gibbs",
        [
          Alcotest.test_case "window matches exact kernel" `Quick
            test_window_matches_exponential_kernel;
          Alcotest.test_case "conditional matches exact kernel" `Quick
            test_general_conditional_matches_exponential;
          Alcotest.test_case "conditional ∝ joint (non-exp)" `Quick
            test_general_joint_consistency;
          Alcotest.test_case "feasibility preserved" `Quick
            test_general_sweep_preserves_feasibility;
          Alcotest.test_case "invariance (exponential case)" `Slow
            test_general_invariance_exponential_case;
        ] );
      ( "stationarity",
        [
          Alcotest.test_case "lognormal tandem from truth" `Quick test_general_stationary;
        ] );
      ( "general-stem",
        [
          Alcotest.test_case "recovers lognormal" `Slow test_general_stem_recovers_lognormal;
          Alcotest.test_case "exponential case matches Stem" `Slow
            test_general_stem_exponential_matches_stem;
          Alcotest.test_case "config validation" `Quick test_general_stem_config_validation;
          Alcotest.test_case "AIC family selection" `Slow test_select_families;
        ] );
    ]
