(* Tests for the Gibbs kernel — the heart of the paper.

   The gold-standard check: the local conditional density must be
   proportional to the full joint (Eq. 1) as a function of the moved
   departure. We verify log-density differences against
   [Event_store.log_likelihood] on randomized stores, which exercises
   every special case (missing neighbours, initial events, final
   events, feedback self-queueing) without hand-derivation. *)

module Gibbs = Qnet_core.Gibbs
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Obs = Qnet_core.Observation
module Init = Qnet_core.Init
module Piecewise = Qnet_prob.Piecewise
module Stats = Qnet_prob.Statistics
module Quad = Qnet_numerics.Quadrature
module Topologies = Qnet_des.Topologies
module Rng = Qnet_prob.Rng
module Trace = Qnet_trace.Trace

let check_close ?(eps = 1e-6) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g (diff %.3g)" name expected actual
      (Float.abs (expected -. actual))

let tandem_store ~seed ~tasks ~frac =
  let rng = Rng.create ~seed () in
  let net = Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 8.0; 7.0 ] in
  let _, _, store = Net_helpers.masked_store ~scheme:(Obs.Task_fraction frac) rng net tasks in
  store

let feedback_store ~seed ~tasks ~frac =
  let rng = Rng.create ~seed () in
  let net = Topologies.feedback ~arrival_rate:3.0 ~service_rate:6.0 ~loop_prob:0.4 in
  let _, _, store = Net_helpers.masked_store ~scheme:(Obs.Task_fraction frac) rng net tasks in
  store

let three_tier_store ~seed ~tasks ~frac =
  let rng = Rng.create ~seed () in
  let net =
    Topologies.three_tier ~arrival_rate:9.0 ~tier_sizes:(2, 1, 2) ~service_rate:6.0 ()
  in
  let _, _, store = Net_helpers.masked_store ~scheme:(Obs.Task_fraction frac) rng net tasks in
  store

let true_params_tandem () =
  Params.create ~rates:[| 6.0; 8.0; 7.0 |] ~arrival_queue:0

(* window of a local density, shrunk slightly to stay strictly inside *)
let interior_points rng ld n =
  let lo = ld.Gibbs.lower in
  let hi = match ld.Gibbs.upper with Some u -> u | None -> lo +. 1.0 in
  let w = hi -. lo in
  if w <= 1e-9 then []
  else
    List.init n (fun _ ->
        lo +. (1e-7 *. w) +. (Rng.float_unit rng *. w *. (1.0 -. 2e-7)))

(* The gold test: conditional log-density differences equal joint
   log-likelihood differences. *)
let conditional_matches_joint store params ~samples rng =
  let unobserved = Store.unobserved_events store in
  let checked = ref 0 in
  Array.iter
    (fun f ->
      let ld = Gibbs.local_density store params f in
      let pts = interior_points rng ld samples in
      match pts with
      | [] | [ _ ] -> ()
      | x0 :: rest ->
          let original = Store.departure store f in
          Store.set_departure store f x0;
          let ll0 = Store.log_likelihood store params in
          let lc0 = Gibbs.log_conditional ld x0 in
          List.iter
            (fun x ->
              Store.set_departure store f x;
              let ll = Store.log_likelihood store params in
              let lc = Gibbs.log_conditional ld x in
              incr checked;
              check_close ~eps:1e-6
                (Printf.sprintf "event %d at %.6g" f x)
                (ll -. ll0) (lc -. lc0))
            rest;
          Store.set_departure store f original)
    unobserved;
  !checked

let test_conditional_vs_joint_tandem () =
  let store = tandem_store ~seed:101 ~tasks:60 ~frac:0.2 in
  let params = true_params_tandem () in
  let rng = Rng.create ~seed:102 () in
  let n = conditional_matches_joint store params ~samples:4 rng in
  Alcotest.(check bool) (Printf.sprintf "checked %d comparisons" n) true (n > 100)

let test_conditional_vs_joint_three_tier () =
  let store = three_tier_store ~seed:103 ~tasks:60 ~frac:0.15 in
  let params = Params.create ~rates:[| 9.0; 6.0; 6.0; 6.0; 6.0; 6.0 |] ~arrival_queue:0 in
  let rng = Rng.create ~seed:104 () in
  let n = conditional_matches_joint store params ~samples:4 rng in
  Alcotest.(check bool) "enough comparisons" true (n > 100)

let test_conditional_vs_joint_feedback () =
  (* tasks revisiting the same queue exercise the g = e special case *)
  let store = feedback_store ~seed:105 ~tasks:80 ~frac:0.2 in
  let params = Params.create ~rates:[| 3.0; 6.0 |] ~arrival_queue:0 in
  let rng = Rng.create ~seed:106 () in
  let n = conditional_matches_joint store params ~samples:4 rng in
  Alcotest.(check bool) "enough comparisons" true (n > 100)

let test_conditional_vs_joint_random_params () =
  (* mismatched parameters must not break proportionality *)
  let store = tandem_store ~seed:107 ~tasks:40 ~frac:0.3 in
  let params = Params.create ~rates:[| 1.3; 22.0; 0.4 |] ~arrival_queue:0 in
  let rng = Rng.create ~seed:108 () in
  let n = conditional_matches_joint store params ~samples:3 rng in
  Alcotest.(check bool) "enough comparisons" true (n > 50)

(* windows always contain the current (feasible) departure *)
let test_window_contains_current () =
  let store = three_tier_store ~seed:109 ~tasks:100 ~frac:0.1 in
  let params = Params.create ~rates:(Array.make 6 5.0) ~arrival_queue:0 in
  Array.iter
    (fun f ->
      let d = Store.departure store f in
      let ld = Gibbs.local_density store params f in
      if d < ld.Gibbs.lower -. 1e-9 then
        Alcotest.failf "event %d: current %.9g below lower %.9g" f d ld.Gibbs.lower;
      match ld.Gibbs.upper with
      | Some u when d > u +. 1e-9 ->
          Alcotest.failf "event %d: current %.9g above upper %.9g" f d u
      | _ -> ())
    (Store.unobserved_events store)

let test_local_density_rejects_observed () =
  let store = tandem_store ~seed:110 ~tasks:10 ~frac:1.0 in
  let params = true_params_tandem () in
  Alcotest.check_raises "observed" (Invalid_argument "Gibbs.local_density: event is observed")
    (fun () -> ignore (Gibbs.local_density store params 0))

(* sampling stays in the window and preserves feasibility *)
let test_resample_preserves_feasibility () =
  let store = three_tier_store ~seed:111 ~tasks:150 ~frac:0.1 in
  let params = Params.create ~rates:(Array.make 6 5.0) ~arrival_queue:0 in
  let rng = Rng.create ~seed:112 () in
  for _ = 1 to 20 do
    Gibbs.sweep ~shuffle:true rng store params;
    match Store.validate store with
    | Ok () -> ()
    | Error m -> Alcotest.failf "sweep broke feasibility: %s" m
  done

let test_sample_within_window () =
  let store = tandem_store ~seed:113 ~tasks:80 ~frac:0.2 in
  let params = true_params_tandem () in
  let rng = Rng.create ~seed:114 () in
  Array.iter
    (fun f ->
      let ld = Gibbs.local_density store params f in
      for _ = 1 to 10 do
        let x = Gibbs.sample_event rng store params f in
        if x < ld.Gibbs.lower -. 1e-9 then Alcotest.failf "below window";
        match ld.Gibbs.upper with
        | Some u when x > u +. 1e-9 -> Alcotest.failf "above window"
        | _ -> ()
      done)
    (Store.unobserved_events store)

(* the sampled conditional matches its own density: KS against the
   quadrature CDF of log_conditional *)
let test_sampler_matches_density () =
  let store = tandem_store ~seed:115 ~tasks:50 ~frac:0.2 in
  let params = true_params_tandem () in
  let rng = Rng.create ~seed:116 () in
  let unobserved = Store.unobserved_events store in
  (* pick a handful of events with a bounded, non-degenerate window *)
  let candidates =
    Array.to_list unobserved
    |> List.filter_map (fun f ->
           let ld = Gibbs.local_density store params f in
           match ld.Gibbs.upper with
           | Some u when u -. ld.Gibbs.lower > 0.01 -> Some (f, ld, u)
           | _ -> None)
  in
  let take = List.filteri (fun i _ -> i < 5) candidates in
  Alcotest.(check bool) "found test events" true (List.length take > 0);
  List.iter
    (fun (f, ld, u) ->
      let lo = ld.Gibbs.lower in
      let log_z = Quad.log_integral_exp (Gibbs.log_conditional ld) lo u in
      let cdf x =
        if x <= lo then 0.0
        else if x >= u then 1.0
        else exp (Quad.log_integral_exp (Gibbs.log_conditional ld) lo x -. log_z)
      in
      let n = 4000 in
      let xs = Array.init n (fun _ -> Gibbs.sample_event rng store params f) in
      let ks = Stats.ks_statistic_against xs cdf in
      let critical = 1.95 /. sqrt (float_of_int n) in
      if ks > critical then
        Alcotest.failf "event %d: sampler KS %.4f > %.4f" f ks critical)
    take

(* the compiled pieces reproduce the paper's three-case structure *)
let test_paper_piece_structure () =
  (* hand-build: task A: q0 -> q1 -> q2; task B: q0 -> q1 -> q2; resample
     the departure of A's q1 event (= arrival of A's q2 event). All
     neighbours present: within-queue successor g = B's q1 event,
     consumer e = A's q2 event. *)
  let ev task state queue arrival departure = { Trace.task; state; queue; arrival; departure } in
  let trace =
    Trace.create ~num_queues:3
      [
        ev 0 0 0 0.0 1.0;
        ev 0 1 1 1.0 2.0;
        ev 0 2 2 2.0 4.0;
        ev 1 0 0 0.0 1.5;
        ev 1 1 1 1.5 3.0;
        ev 1 2 2 3.0 5.0;
      ]
  in
  (* only the departure of event 1 (A at q1) is latent *)
  let mask = [| true; false; true; true; true; true |] in
  let store = Store.of_trace ~observed:mask trace in
  let mu1 = 2.0 and mu2 = 3.0 in
  let params = Params.create ~rates:[| 1.0; mu1; mu2 |] ~arrival_queue:0 in
  let ld = Gibbs.local_density store params 1 in
  (* L = start of service of event 1 = max(a=1.0, d_rho = -) = 1.0;
     U = min(d_e = 4.0 (A at q2), a of B's q1 = 1.5 is not an upper for
     f (order at q_e applies: next arrival at q2 is B's = 3.0), B's q1
     departure d_g = 3.0) = 3.0 *)
  check_close "lower" 1.0 ld.Gibbs.lower;
  (match ld.Gibbs.upper with
  | Some u -> check_close "upper" 3.0 u
  | None -> Alcotest.fail "expected bounded window");
  (* hinges: at a_g = 1.5 slope +mu1; at d_rho(e): e = A's q2 event, its
     rho is... A's q2 event is the first arrival at q2, so no hinge.
     Wait: B's q2 event arrives later. So e has no rho -> consumer term
     is linear. Expect exactly one hinge (a_g) and linear = -mu1 + mu2. *)
  (match ld.Gibbs.hinges with
  | [ h ] ->
      check_close "hinge knee" 1.5 h.Piecewise.knee;
      check_close "hinge slope" mu1 h.Piecewise.slope
  | hs -> Alcotest.failf "expected 1 hinge, got %d" (List.length hs));
  check_close "linear slope" (mu2 -. mu1) ld.Gibbs.linear;
  (* compiled pieces: [1, 1.5) slope mu2 - mu1; [1.5, 3] slope mu2 *)
  match Gibbs.compile ld with
  | `Bounded pw -> (
      match Piecewise.pieces pw with
      | [ (a0, b0, r0); (a1, b1, r1) ] ->
          check_close "piece0 bounds" 1.0 a0;
          check_close "piece0 end" 1.5 b0;
          check_close "piece0 rate (delta mu)" (mu2 -. mu1) r0;
          check_close "piece1 start" 1.5 a1;
          check_close "piece1 end" 3.0 b1;
          check_close "piece1 rate (+mu_e... both terms)" mu2 r1
      | ps -> Alcotest.failf "expected 2 pieces, got %d" (List.length ps))
  | _ -> Alcotest.fail "expected bounded compile"

let test_tail_case_last_event () =
  (* the last event at a queue for the last task: no consumer, no
     within-queue successor -> exponential tail *)
  let ev task state queue arrival departure = { Trace.task; state; queue; arrival; departure } in
  let trace =
    Trace.create ~num_queues:2 [ ev 0 0 0 0.0 1.0; ev 0 1 1 1.0 2.0 ]
  in
  let mask = [| true; false |] in
  let store = Store.of_trace ~observed:mask trace in
  let params = Params.create ~rates:[| 1.0; 4.0 |] ~arrival_queue:0 in
  let ld = Gibbs.local_density store params 1 in
  Alcotest.(check bool) "unbounded" true (ld.Gibbs.upper = None);
  (match Gibbs.compile ld with
  | `Tail (origin, rate) ->
      check_close "origin = service start" 1.0 origin;
      check_close "rate = mu" 4.0 rate
  | _ -> Alcotest.fail "expected tail");
  (* samples follow Exp(4) from 1.0 *)
  let rng = Rng.create ~seed:117 () in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Gibbs.sample_event rng store params 1 -. 1.0) in
  let ks = Stats.ks_statistic_against xs (fun x -> if x < 0.0 then 0.0 else -.Float.expm1 (-4.0 *. x)) in
  Alcotest.(check bool) "tail distribution" true (ks < 1.95 /. sqrt (float_of_int n))

(* long-run invariance: with true parameters, imputed mean services
   stay near the truth *)
let test_gibbs_invariance_under_truth () =
  let rng = Rng.create ~seed:118 () in
  let net = Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 15.0; 12.0 ] in
  let trace, _, store =
    Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.1) rng net 800
  in
  let params = Params.create ~rates:[| 10.0; 15.0; 12.0 |] ~arrival_queue:0 in
  (* keep ground truth as the starting state: it is perfectly feasible *)
  ignore trace;
  let acc = Array.make 3 0.0 in
  let sweeps = 150 and burn = 50 in
  for s = 1 to sweeps do
    Gibbs.sweep ~shuffle:true rng store params;
    if s > burn then begin
      let means = Store.mean_service_by_queue store in
      Array.iteri (fun q v -> acc.(q) <- acc.(q) +. (v /. float_of_int (sweeps - burn))) means
    end
  done;
  check_close ~eps:0.01 "q0 imputed mean" 0.1 acc.(0);
  check_close ~eps:0.008 "q1 imputed mean" (1.0 /. 15.0) acc.(1);
  check_close ~eps:0.008 "q2 imputed mean" (1.0 /. 12.0) acc.(2)

(* Whole-chain stationarity, started at the truth (after Geweke,
   "Getting it right", JASA 2004). A simulated trace is one draw of the
   latent departures from the posterior a sweep targets: the true
   rates, the observed departures, and the paths and per-queue arrival
   orders the sweep holds fixed. A sweep that leaves that posterior
   invariant maps the truth to another draw from it, so statistics of
   the state after k sweeps from the truth share one distribution with
   the same statistics of the truth. Each comparison takes the swept
   state of the even replicates and the truth of the odd ones, so the
   two samples are independent and a two-sample KS test applies. The
   per-conditional tests above cover one move; this covers the order
   in which a sweep composes them. *)
let stationarity_stats store =
  Array.append (Store.mean_service_by_queue store) (Store.mean_waiting_by_queue store)

(* In index order, then shuffled, every statistic must pass at KS
   distance <= 2.1 sqrt(2/n): a level of about 3e-4 per test, about 1% over
   the 40 tests of this group. *)
let check_stationary ~net ~tasks ~seed =
  let params = Params.of_network net in
  let replicates = 4000 and sweeps = 10 in
  List.iter
    (fun shuffle ->
      let rng = Rng.create ~seed () in
      let truth = Array.make replicates [||] and swept = Array.make replicates [||] in
      for r = 0 to replicates - 1 do
        let _, _, store =
          Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.25) rng net tasks
        in
        truth.(r) <- stationarity_stats store;
        Gibbs.run ~shuffle ~sweeps rng store params;
        swept.(r) <- stationarity_stats store
      done;
      let half = replicates / 2 in
      let critical = 2.1 *. sqrt (2.0 /. float_of_int half) in
      for s = 0 to Array.length truth.(0) - 1 do
        let a = Array.init half (fun i -> swept.(2 * i).(s)) in
        let b = Array.init half (fun i -> truth.((2 * i) + 1).(s)) in
        let d = Stats.ks_two_sample a b in
        if d > critical then
          Alcotest.failf "%s, statistic %d: KS %.4f > %.4f after %d sweeps"
            (if shuffle then "shuffled" else "in order")
            s d critical sweeps
      done)
    [ false; true ]

let test_stationary_three_tier () =
  check_stationary ~tasks:10 ~seed:140
    ~net:(Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 ())

let test_stationary_feedback () =
  check_stationary ~tasks:10 ~seed:141
    ~net:(Topologies.feedback ~arrival_rate:3.0 ~service_rate:6.0 ~loop_prob:0.4)

let test_run_sweeps_count () =
  let store = tandem_store ~seed:119 ~tasks:20 ~frac:0.5 in
  let params = true_params_tandem () in
  let rng = Rng.create ~seed:120 () in
  Gibbs.run ~sweeps:0 rng store params;
  (* zero sweeps must leave the state untouched *)
  let before = Array.init (Store.num_events store) (Store.departure store) in
  Gibbs.run ~sweeps:0 rng store params;
  let after = Array.init (Store.num_events store) (Store.departure store) in
  Alcotest.(check bool) "unchanged" true (before = after);
  match Gibbs.run ~sweeps:(-1) rng store params with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative sweeps rejected"

let test_fully_observed_sweep_noop () =
  let store = tandem_store ~seed:121 ~tasks:20 ~frac:1.0 in
  let params = true_params_tandem () in
  let rng = Rng.create ~seed:122 () in
  let before = Array.init (Store.num_events store) (Store.departure store) in
  Gibbs.sweep rng store params;
  let after = Array.init (Store.num_events store) (Store.departure store) in
  Alcotest.(check bool) "no latent events, no changes" true (before = after)

(* ------------------------------------------------------------------ *)
(* Golden chain digests: the departures' bits (plus the generator state)
   after seeded sweeps, pinned so that any change to the kernel, the
   sweep driver or the generator that alters a chain by even one bit
   fails here. Telemetry and profiling must not consume draws, so every
   mode of one order shares one digest. *)

module Prof = Qnet_obs.Prof

(* The 1-2-4 paper fixture at 300 tasks (about 1.1k latent events),
   initialised by Init.feasible's targeted start, swept under rates
   that differ per queue so every piece shape occurs. *)
let digest_three_tier =
  lazy
    (let net =
       Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 ()
     in
     let trace = Net_helpers.simulate_n (Rng.create ~seed:1001 ()) net 300 in
     let mask = Obs.mask (Rng.create ~seed:1002 ()) (Obs.Task_fraction 0.05) trace in
     let store = Store.of_trace ~observed:mask trace in
     (match Init.feasible ~target:(Params.of_network net) store with
     | Ok () -> ()
     | Error m -> Alcotest.failf "Init.feasible: %s" m);
     let params =
       Params.create ~rates:[| 10.0; 4.0; 6.0; 5.5; 3.0; 7.0; 5.0; 4.5 |] ~arrival_queue:0
     in
     (store, params))

(* Tasks that revisit their queue: covers g = e. *)
let digest_feedback =
  lazy
    (let store = feedback_store ~seed:131 ~tasks:200 ~frac:0.2 in
     (store, Params.create ~rates:[| 2.5; 7.0 |] ~arrival_queue:0))

(* The same network at 26,316 tasks (100k events), as bench/main.exe's
   100k size: a store far beyond the caches, which the 1k fixtures never
   leave. The simulated truth is a feasible state, so it is swept as it
   is. *)
let digest_three_tier_large =
  lazy
    (let net =
       Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 ()
     in
     let trace = Net_helpers.simulate_n (Rng.create ~seed:1001 ()) net 26316 in
     let mask = Obs.mask (Rng.create ~seed:1002 ()) (Obs.Task_fraction 0.05) trace in
     let store = Store.of_trace ~observed:mask trace in
     let _, params = Lazy.force digest_three_tier in
     (store, params))

let digest_of store rng =
  let b = Buffer.create (8 * (Store.num_events store + 4)) in
  for i = 0 to Store.num_events store - 1 do
    Buffer.add_int64_le b (Int64.bits_of_float (Store.departure store i))
  done;
  Array.iter (Buffer.add_int64_le b) (Rng.state rng);
  Digest.to_hex (Digest.string (Buffer.contents b))

let chain_digest fixture ~shuffle ~sweeps =
  let store0, params = Lazy.force fixture in
  let store = Store.copy store0 in
  let rng = Rng.create ~seed:2024 () in
  Gibbs.run ~shuffle ~sweeps rng store params;
  digest_of store rng

let check_digest fixture_name fixture ~shuffle expected =
  Net_helpers.check_modes
    (Printf.sprintf "%s, %s" fixture_name (if shuffle then "shuffled" else "in order"))
    expected
    (fun () -> chain_digest fixture ~shuffle ~sweeps:5)

let test_digest_three_tier_in_order () =
  check_digest "three-tier" digest_three_tier ~shuffle:false
    "380d4579fc5aec9a070ea9de73043c03"

let test_digest_three_tier_shuffled () =
  check_digest "three-tier" digest_three_tier ~shuffle:true
    "7d93b6f31acdfa26a29dfe33e83e0da9"

let test_digest_feedback_in_order () =
  check_digest "feedback" digest_feedback ~shuffle:false
    "8fded75c88ab3f2056e658f53390947f"

let test_digest_feedback_shuffled () =
  check_digest "feedback" digest_feedback ~shuffle:true
    "738f5e0fface1e8a9b6d3b4ea2d32e98"

let test_digest_three_tier_large_shuffled () =
  check_digest "three-tier 100k" digest_three_tier_large ~shuffle:true
    "e8469e2073dfd363e53b28c8675845d6"

(* Restored snapshots are not validated. A sweep over ρ chains that
   point out of range, or at wild negative indices, must end in the
   kernel's bounds check in either order, and sweeping must work again
   once a good state is back. *)
let test_sweep_survives_corrupt_chains () =
  let store0, params = Lazy.force digest_three_tier in
  List.iter
    (fun shuffle ->
      let store = Store.copy store0 in
      let good = Store.snapshot store in
      let bad = Store.snapshot store in
      let n = Store.num_events store in
      for i = 0 to n - 1 do
        match i mod 7 with
        | 0 -> bad.Store.s_rho.(i) <- max_int - i
        | 1 -> bad.Store.s_rho_inv.(i) <- n + i
        | 2 -> bad.Store.s_rho.(i) <- min_int + i
        | 3 -> bad.Store.s_rho_inv.(i) <- -1 - (i * 4096)
        | _ -> ()
      done;
      Store.restore store bad;
      let order = if shuffle then "shuffled" else "in order" in
      let rng = Rng.create ~seed:2027 () in
      (match Gibbs.sweep ~shuffle rng store params with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.failf "%s: a sweep over out-of-range chains completed" order);
      Store.restore store good;
      Gibbs.sweep ~shuffle rng store params;
      match Store.validate store with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s: %s" order m)
    [ false; true ]

(* The single-event entry points, which resample through the same
   kernel. *)
let test_digest_single_event () =
  let store0, params = Lazy.force digest_three_tier in
  let store = Store.copy store0 in
  let rng = Rng.create ~seed:2025 () in
  let draws = Buffer.create 1024 in
  Array.iter
    (fun f ->
      Buffer.add_int64_le draws
        (Int64.bits_of_float (Gibbs.sample_event rng store params f));
      Gibbs.resample_event rng store params f)
    (Store.unobserved_events store);
  Alcotest.(check string) "sample_event draws"
    "143c53dc3ac3f7bbb923439df194a4a1"
    (Digest.to_hex (Digest.string (Buffer.contents draws)));
  Alcotest.(check string) "resample_event state"
    "7c8c90c21eeb2152c73abee6eb959690" (digest_of store rng)

(* ------------------------------------------------------------------ *)
(* Differential: the production kernel against the reference
   [sample_compiled (compile (local_density ...))], bit for bit, from
   copies of one generator, for every latent event of randomized
   stores and rates. *)

let bits = Int64.bits_of_float

let reference_draw rng store params f =
  Gibbs.sample_compiled rng (Gibbs.compile (Gibbs.local_density store params f))

(* Rates log-uniform over [lo, hi] per queue. *)
let random_params rng ~num_queues ~lo ~hi =
  Params.create ~arrival_queue:0
    ~rates:
      (Array.init num_queues (fun _ ->
           exp (log lo +. (Rng.float_unit rng *. (log hi -. log lo)))))

let check_events_match_reference store params rng =
  Array.iter
    (fun f ->
      let r_ref = Rng.copy rng in
      let expected = reference_draw r_ref store params f in
      let got = Gibbs.sample_event rng store params f in
      if not (Int64.equal (bits expected) (bits got)) then
        Alcotest.failf "event %d: kernel %h, reference %h" f got expected;
      if Rng.state rng <> Rng.state r_ref then
        Alcotest.failf "event %d: kernel and reference drew differently" f)
    (Store.unobserved_events store)

(* Per event on fresh stores, then again after production sweeps have
   moved the latents away from the simulated truth. *)
let check_store_family make ~num_queues =
  for seed = 0 to 5 do
    let store = make seed in
    let rng = Rng.create ~seed:(500 + seed) () in
    List.iter
      (fun (lo, hi) ->
        let params = random_params rng ~num_queues ~lo ~hi in
        check_events_match_reference store params rng;
        Gibbs.run ~shuffle:true ~sweeps:2 rng store params;
        check_events_match_reference store params rng)
      [ (0.5, 20.0); (1e-3, 1e3); (5.0, 5.0) ]
  done

let test_kernel_matches_reference_tandem () =
  check_store_family ~num_queues:3 (fun seed ->
      tandem_store ~seed:(200 + seed) ~tasks:60 ~frac:0.2)

let test_kernel_matches_reference_three_tier () =
  check_store_family ~num_queues:6 (fun seed ->
      three_tier_store ~seed:(210 + seed) ~tasks:60 ~frac:0.15)

let test_kernel_matches_reference_feedback () =
  check_store_family ~num_queues:2 (fun seed ->
      feedback_store ~seed:(220 + seed) ~tasks:80 ~frac:0.2)

(* Whole sweeps: the production sweep against a sweep written with the
   reference, from the same state and seed. *)
let reference_sweep ~shuffle rng store params =
  let order = Store.unobserved_events store in
  if shuffle then Rng.shuffle_in_place rng order;
  Array.iter
    (fun f -> Store.set_departure store f (reference_draw rng store params f))
    order

let test_sweep_matches_reference () =
  List.iter
    (fun (name, store) ->
      let num_queues = Store.num_queues store in
      let params =
        random_params (Rng.create ~seed:230 ()) ~num_queues ~lo:0.5 ~hi:20.0
      in
      List.iter
        (fun shuffle ->
          let a = Store.copy store and b = Store.copy store in
          let ra = Rng.create ~seed:231 () and rb = Rng.create ~seed:231 () in
          for _ = 1 to 4 do
            Gibbs.sweep ~shuffle ra a params;
            reference_sweep ~shuffle rb b params
          done;
          Alcotest.(check string)
            (Printf.sprintf "%s, shuffle %b" name shuffle)
            (digest_of b rb) (digest_of a ra))
        [ false; true ])
    [
      ("tandem", tandem_store ~seed:232 ~tasks:80 ~frac:0.2);
      ("three-tier", three_tier_store ~seed:233 ~tasks:80 ~frac:0.15);
      ("feedback", feedback_store ~seed:234 ~tasks:80 ~frac:0.2);
    ]

(* The allocation contract: a plain sweep allocates its scratch, a view
   of the store and a closure, and nothing per event, so the whole
   sweep stays under one byte per latent event on the 1k fixture. *)
let test_plain_sweep_allocation () =
  let store0, params = Lazy.force digest_three_tier in
  let store = Store.copy store0 in
  let rng = Rng.create ~seed:236 () in
  let latent = Array.length (Store.latent store) in
  let allocated () =
    Prof.allocated_words () *. float_of_int (Sys.word_size / 8)
  in
  List.iter
    (fun shuffle ->
      Gibbs.sweep ~shuffle rng store params;
      let sweeps = 10 in
      let b0 = allocated () in
      for _ = 1 to sweeps do
        Gibbs.sweep ~shuffle rng store params
      done;
      let per_event = (allocated () -. b0) /. float_of_int (sweeps * latent) in
      if per_event > 1.0 then
        Alcotest.failf "%s sweep allocated %.2f B per event"
          (if shuffle then "shuffled" else "in-order")
          per_event)
    [ false; true ]

(* The kernel's and the store's min and max give [Float.max] and
   [Float.min]'s bits on every pair of signed zeros, infinities,
   subnormals, the extremes and ordinary values, each against itself,
   its negation and every other; a NaN on either side gives a NaN. *)
let test_min_max_helpers () =
  let values =
    [ 0.0; 1.0; 1.5; 0x1p-1074; 0x1.8p-1060; Float.min_float; Float.max_float;
      Float.epsilon; 3.141592653589793; 1e300; infinity ]
  in
  let values = values @ List.map Float.neg values in
  let bits = Int64.bits_of_float in
  let helpers =
    [ ("Gibbs.fmax", Gibbs.fmax, Float.max); ("Event_store.fmax", Store.fmax, Float.max);
      ("Gibbs.fmin", Gibbs.fmin, Float.min) ]
  in
  List.iter
    (fun (name, f, reference) ->
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              if bits (f x y) <> bits (reference x y) then
                Alcotest.failf "%s %h %h = %h, stdlib %h" name x y (f x y) (reference x y))
            values;
          List.iter
            (fun nan ->
              if not (Float.is_nan (f nan x) && Float.is_nan (f x nan)) then
                Alcotest.failf "%s with %h and a NaN gave no NaN" name x)
            [ Float.nan; Float.neg Float.nan ])
        values)
    helpers

let () =
  Alcotest.run "qnet_gibbs"
    [
      ( "kernel",
        [
          Alcotest.test_case "conditional ∝ joint (tandem)" `Quick
            test_conditional_vs_joint_tandem;
          Alcotest.test_case "conditional ∝ joint (3-tier)" `Quick
            test_conditional_vs_joint_three_tier;
          Alcotest.test_case "conditional ∝ joint (feedback)" `Quick
            test_conditional_vs_joint_feedback;
          Alcotest.test_case "conditional ∝ joint (odd params)" `Quick
            test_conditional_vs_joint_random_params;
          Alcotest.test_case "window contains current" `Quick test_window_contains_current;
          Alcotest.test_case "observed rejected" `Quick test_local_density_rejects_observed;
          Alcotest.test_case "paper piece structure" `Quick test_paper_piece_structure;
          Alcotest.test_case "tail case" `Slow test_tail_case_last_event;
        ] );
      ( "sampling",
        [
          Alcotest.test_case "feasibility preserved" `Quick
            test_resample_preserves_feasibility;
          Alcotest.test_case "samples in window" `Quick test_sample_within_window;
          Alcotest.test_case "sampler matches density" `Slow test_sampler_matches_density;
          Alcotest.test_case "invariance under truth" `Slow
            test_gibbs_invariance_under_truth;
          Alcotest.test_case "run sweep counts" `Quick test_run_sweeps_count;
          Alcotest.test_case "fully observed noop" `Quick test_fully_observed_sweep_noop;
        ] );
      ( "stationarity",
        [
          Alcotest.test_case "1-2-4 from truth, both orders" `Quick test_stationary_three_tier;
          Alcotest.test_case "feedback from truth, both orders" `Quick test_stationary_feedback;
        ] );
      ( "chain digest",
        [
          Alcotest.test_case "three-tier in order" `Quick test_digest_three_tier_in_order;
          Alcotest.test_case "three-tier shuffled" `Quick test_digest_three_tier_shuffled;
          Alcotest.test_case "feedback in order" `Quick test_digest_feedback_in_order;
          Alcotest.test_case "feedback shuffled" `Quick test_digest_feedback_shuffled;
          Alcotest.test_case "three-tier 100k shuffled" `Quick
            test_digest_three_tier_large_shuffled;
          Alcotest.test_case "corrupt chains, both orders" `Quick
            test_sweep_survives_corrupt_chains;
          Alcotest.test_case "single event" `Quick test_digest_single_event;
        ] );
      ( "production kernel",
        [
          Alcotest.test_case "≡ reference (tandem)" `Quick
            test_kernel_matches_reference_tandem;
          Alcotest.test_case "≡ reference (3-tier)" `Quick
            test_kernel_matches_reference_three_tier;
          Alcotest.test_case "≡ reference (feedback)" `Quick
            test_kernel_matches_reference_feedback;
          Alcotest.test_case "sweep ≡ reference sweep" `Quick test_sweep_matches_reference;
          Alcotest.test_case "plain sweep allocation" `Quick test_plain_sweep_allocation;
          Alcotest.test_case "min and max ≡ Float.min, Float.max" `Quick test_min_max_helpers;
        ] );
    ]
