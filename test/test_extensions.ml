(* Tests for the extensions beyond the paper's §3-4 core:
   - Event_store.move_event (mutable within-queue chains)
   - Path_move: Metropolis–Hastings routing resampling
   - Bayes: full posterior over rates *)

module Rng = Qnet_prob.Rng
module Stats = Qnet_prob.Statistics
module Fsm = Qnet_fsm.Fsm
module Trace = Qnet_trace.Trace
module Topologies = Qnet_des.Topologies
module Network = Qnet_des.Network
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Gibbs = Qnet_core.Gibbs
module Path_move = Qnet_core.Path_move
module Bayes = Qnet_core.Bayes

let check_close ?(eps = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let ev task state queue arrival departure =
  { Trace.task; state; queue; arrival; departure }

(* one task visiting queue 1; queue 2 exists but is empty *)
let one_task_trace ~service =
  Trace.create ~num_queues:3
    [ ev 0 0 0 0.0 1.0; ev 0 1 1 1.0 (1.0 +. service) ]

(* FSM whose state 1 emits queue 1 with prob p1 and queue 2 with 1-p1 *)
let balancer_fsm p1 =
  Fsm.create ~num_states:3 ~num_queues:3 ~initial:0 ~final:2
    ~transitions:[ (0, [ (1, 1.0) ]); (1, [ (2, 1.0) ]) ]
    ~emissions:[ (0, [ (0, 1.0) ]); (1, [ (1, p1); (2, 1.0 -. p1) ]) ]

(* ------------------------------------------------------------------ *)
(* move_event *)

let two_task_two_queue_trace () =
  Trace.create ~num_queues:3
    [
      ev 0 0 0 0.0 1.0;
      ev 0 1 1 1.0 2.0;
      ev 1 0 0 0.0 1.5;
      ev 1 1 1 1.5 3.0;
    ]

let test_move_event_relinks () =
  let store = Store.of_trace ~observed:[| true; false; true; false |] (two_task_two_queue_trace ()) in
  (* move task 1's service event (index 3) from queue 1 to queue 2 *)
  Store.move_event store 3 ~queue:2;
  Alcotest.(check int) "queue updated" 2 (Store.queue store 3);
  Alcotest.(check (array int)) "queue 1 chain" [| 1 |] (Store.events_at_queue store 1);
  Alcotest.(check (array int)) "queue 2 chain" [| 3 |] (Store.events_at_queue store 2);
  Alcotest.(check int) "no rho in fresh queue" (-1) (Store.rho store 3);
  Alcotest.(check int) "old chain healed" (-1) (Store.rho_inv store 1);
  (match Store.validate store with Ok () -> () | Error m -> Alcotest.fail m);
  (* move back: insertion must restore order by arrival *)
  Store.move_event store 3 ~queue:1;
  Alcotest.(check (array int)) "restored chain" [| 1; 3 |] (Store.events_at_queue store 1);
  Alcotest.(check int) "rho restored" 1 (Store.rho store 3)

let test_move_event_insert_in_middle () =
  (* three events at queue 1 arriving 1.0 < 1.5 < 2.2; move the middle
     one away and back — it must return to the middle *)
  let trace =
    Trace.create ~num_queues:3
      [
        ev 0 0 0 0.0 1.0;
        ev 0 1 1 1.0 1.2;
        ev 1 0 0 0.0 1.5;
        ev 1 1 1 1.5 2.0;
        ev 2 0 0 0.0 2.2;
        ev 2 1 1 2.2 3.0;
      ]
  in
  let store = Store.of_trace trace in
  (* indexes: task0 = 0,1; task1 = 2,3; task2 = 4,5 *)
  Store.move_event store 3 ~queue:2;
  Alcotest.(check (array int)) "two left" [| 1; 5 |] (Store.events_at_queue store 1);
  Store.move_event store 3 ~queue:1;
  Alcotest.(check (array int)) "middle restored" [| 1; 3; 5 |]
    (Store.events_at_queue store 1)

let test_move_event_rejections () =
  let store = Store.of_trace (two_task_two_queue_trace ()) in
  (match Store.move_event store 0 ~queue:1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "initial events immovable");
  match Store.move_event store 1 ~queue:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arrival queue is off-limits"

let test_move_event_preserves_services_elsewhere () =
  let rng = Rng.create ~seed:601 () in
  let net =
    Topologies.three_tier ~arrival_rate:8.0 ~tier_sizes:(3, 1, 1) ~service_rate:9.0 ()
  in
  let trace = Net_helpers.simulate_n rng net 100 in
  let store = Store.of_trace trace in
  (* record services of events at tier2/tier3 *)
  let tier2 = Store.events_at_queue store 4 in
  let before = Array.map (fun i -> Store.service store i) tier2 in
  (* move a tier-1 event between servers *)
  let tier1 = Store.events_at_queue store 1 in
  let victim = tier1.(Array.length tier1 / 2) in
  Store.move_event store victim ~queue:2;
  let after = Array.map (fun i -> Store.service store i) tier2 in
  Alcotest.(check bool) "downstream services untouched" true (before = after)

(* A three-tier store with latent departures, and an event that can be
   re-homed to another queue. *)
let restore_fixture ~seed =
  let rng = Rng.create ~seed () in
  let net =
    Topologies.three_tier ~arrival_rate:9.0 ~tier_sizes:(2, 1, 2) ~service_rate:6.0 ()
  in
  let _, _, store = Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.2) rng net 120 in
  let q0 = Store.arrival_queue store in
  let movable i = Store.queue store i <> q0 in
  let i = Seq.find movable (Seq.init (Store.num_events store) Fun.id) |> Option.get in
  let target =
    Seq.find
      (fun q -> q <> q0 && q <> Store.queue store i)
      (Seq.init (Store.num_queues store) Fun.id)
    |> Option.get
  in
  (store, i, target)

let check_snapshot name (expected : Store.snapshot) (actual : Store.snapshot) =
  let bits a = Array.map Int64.bits_of_float a in
  Alcotest.(check (array int64)) (name ^ ": departures")
    (bits expected.Store.s_departure) (bits actual.Store.s_departure);
  Alcotest.(check (array int)) (name ^ ": queues") expected.Store.s_queue actual.Store.s_queue;
  Alcotest.(check (array int)) (name ^ ": rho") expected.Store.s_rho actual.Store.s_rho;
  Alcotest.(check (array int)) (name ^ ": rho_inv") expected.Store.s_rho_inv
    actual.Store.s_rho_inv;
  Alcotest.(check (array int)) (name ^ ": heads") expected.Store.s_heads actual.Store.s_heads

let check_valid store =
  match Store.validate store with Ok () -> () | Error m -> Alcotest.fail m

(* A snapshot taken before a move restores the structure the move
   rearranged, not just the departures. *)
let test_restore_undoes_move () =
  let store, i, target = restore_fixture ~seed:650 in
  let before = Store.snapshot store in
  Store.move_event store i ~queue:target;
  Alcotest.(check bool) "the move changed the structure" true
    ((Store.snapshot store).Store.s_queue <> before.Store.s_queue);
  Store.restore store before;
  check_snapshot "after restore" before (Store.snapshot store);
  check_valid store

(* Rolling back a sweep rewinds the departures and leaves the queues
   and chains as they were. *)
let test_departure_only_restore_keeps_structure () =
  let store, _, _ = restore_fixture ~seed:651 in
  let params = Params.create ~rates:[| 9.0; 6.0; 6.0; 6.0; 6.0; 6.0 |] ~arrival_queue:0 in
  let before = Store.snapshot store in
  Gibbs.run ~sweeps:2 (Rng.create ~seed:652 ()) store params;
  let swept = Store.snapshot store in
  Alcotest.(check bool) "the sweeps moved departures" true
    (swept.Store.s_departure <> before.Store.s_departure);
  Store.restore store before;
  check_snapshot "after restore" before (Store.snapshot store);
  check_valid store

(* ------------------------------------------------------------------ *)
(* Path_move: exact posterior checks *)

(* With the event's departure OBSERVED, the route posterior is
   proportional to p(q) mu_q e^{-mu_q s}. *)
let test_route_posterior_observed_departure () =
  let s = 0.5 in
  let trace = one_task_trace ~service:s in
  let store = Store.of_trace trace in
  (* everything observed: only the route moves *)
  let p1 = 0.3 in
  let fsm = balancer_fsm p1 in
  let mu1 = 2.0 and mu2 = 10.0 in
  let params = Params.create ~rates:[| 1.0; mu1; mu2 |] ~arrival_queue:0 in
  let w1 = p1 *. mu1 *. exp (-.mu1 *. s) in
  let w2 = (1.0 -. p1) *. mu2 *. exp (-.mu2 *. s) in
  let expected = w1 /. (w1 +. w2) in
  let rng = Rng.create ~seed:602 () in
  let n = 40_000 in
  let at_q1 = ref 0 in
  for _ = 1 to n do
    ignore (Path_move.resample_event rng store params fsm 1);
    if Store.queue store 1 = 1 then incr at_q1
  done;
  check_close ~eps:0.01 "route posterior" expected (float_of_int !at_q1 /. float_of_int n)

(* With the departure also latent (resampled by Gibbs between route
   moves), the service integrates out and the route posterior reverts
   to the emission prior. *)
let test_route_posterior_free_departure () =
  let trace = one_task_trace ~service:0.5 in
  let mask = [| true; false |] in
  let store = Store.of_trace ~observed:mask trace in
  let p1 = 0.3 in
  let fsm = balancer_fsm p1 in
  let params = Params.create ~rates:[| 1.0; 2.0; 10.0 |] ~arrival_queue:0 in
  let rng = Rng.create ~seed:603 () in
  let n = 40_000 in
  let at_q1 = ref 0 in
  for _ = 1 to n do
    Gibbs.resample_event rng store params 1;
    ignore (Path_move.resample_event rng store params fsm 1);
    if Store.queue store 1 = 1 then incr at_q1
  done;
  check_close ~eps:0.012 "marginal route = prior" p1
    (float_of_int !at_q1 /. float_of_int n)

let test_path_sweep_preserves_validity () =
  let rng = Rng.create ~seed:604 () in
  let net =
    Topologies.three_tier ~arrival_rate:8.0 ~tier_sizes:(4, 1, 2) ~service_rate:6.0 ()
  in
  let fsm = Network.fsm net in
  let trace = Net_helpers.simulate_n rng net 200 in
  let mask = Obs.mask rng (Obs.Task_fraction 0.1) trace in
  let store = Store.of_trace ~observed:mask trace in
  let params = Params.of_network net in
  let total = ref 0 in
  for _ = 1 to 10 do
    Gibbs.sweep ~shuffle:true rng store params;
    let stats = Path_move.sweep rng store params fsm in
    total := !total + stats.Path_move.accepted;
    match Store.validate store with
    | Ok () -> ()
    | Error m -> Alcotest.failf "invalid after path sweep: %s" m
  done;
  Alcotest.(check bool)
    (Printf.sprintf "some moves accepted (%d)" !total)
    true (!total > 0)

let test_path_sweep_stats_consistent () =
  let rng = Rng.create ~seed:605 () in
  let net =
    Topologies.three_tier ~arrival_rate:8.0 ~tier_sizes:(2, 1, 2) ~service_rate:6.0 ()
  in
  let fsm = Network.fsm net in
  let trace = Net_helpers.simulate_n rng net 100 in
  let mask = Obs.mask rng (Obs.Task_fraction 0.2) trace in
  let store = Store.of_trace ~observed:mask trace in
  let params = Params.of_network net in
  let stats = Path_move.sweep rng store params fsm in
  Alcotest.(check bool) "accepted <= proposed" true
    (stats.Path_move.accepted <= stats.Path_move.proposed);
  Alcotest.(check bool) "infeasible <= proposed" true
    (stats.Path_move.infeasible <= stats.Path_move.proposed)

let test_ineligible_cases () =
  let trace = one_task_trace ~service:0.5 in
  let store = Store.of_trace trace in
  let fsm_single = balancer_fsm 1.0 in
  (* state 1 emits only queue 1 (p = 1): no alternatives *)
  Alcotest.(check bool) "single emission ineligible" false
    (Path_move.eligible store fsm_single 1);
  (* initial events are never eligible *)
  Alcotest.(check bool) "initial ineligible" false
    (Path_move.eligible store (balancer_fsm 0.5) 0)

let test_route_recovery_from_scrambled_assignment () =
  (* deliberately scramble tier assignments of latent tasks, then let
     the joint chain recover: per-server event counts should drift back
     toward balance *)
  let rng = Rng.create ~seed:606 () in
  let net =
    Topologies.three_tier ~arrival_rate:6.0 ~tier_sizes:(2, 1, 1) ~service_rate:8.0 ()
  in
  let fsm = Network.fsm net in
  let trace = Net_helpers.simulate_n rng net 300 in
  let mask = Obs.mask rng (Obs.Task_fraction 0.05) trace in
  let store = Store.of_trace ~observed:mask trace in
  let params = Params.of_network net in
  (* move every movable tier-1 event to server 1 (queue 1), keeping
     only moves that leave the state feasible *)
  Array.iter
    (fun i ->
      if (not (Store.observed store i)) && Store.queue store i = 2 then begin
        Store.move_event store i ~queue:1;
        let succ = Store.rho_inv store i in
        let ok =
          Store.service store i >= 0.0
          && (succ < 0 || Store.service store succ >= 0.0)
        in
        if not ok then Store.move_event store i ~queue:2
      end)
    (Store.unobserved_events store);
  (match Store.validate store with
  | Ok () -> ()
  | Error m -> Alcotest.failf "scrambled state invalid: %s" m);
  let count q = Array.length (Store.events_at_queue store q) in
  let skew_before = abs (count 1 - count 2) in
  for _ = 1 to 60 do
    Gibbs.sweep ~shuffle:true rng store params;
    ignore (Path_move.sweep rng store params fsm)
  done;
  let skew_after = abs (count 1 - count 2) in
  Alcotest.(check bool)
    (Printf.sprintf "skew %d -> %d" skew_before skew_after)
    true
    (skew_after < skew_before / 2);
  match Store.validate store with Ok () -> () | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Bayes *)

let test_bayes_recovers_tandem () =
  let rng = Rng.create ~seed:607 () in
  let net = Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 15.0; 12.0 ] in
  let trace = Net_helpers.simulate_n rng net 500 in
  let mask = Obs.mask rng (Obs.Task_fraction 0.2) trace in
  let store = Store.of_trace ~observed:mask trace in
  let result = Bayes.run rng store in
  check_close ~eps:0.02 "lambda mean service" 0.1 result.Bayes.mean_service.(0);
  check_close ~eps:0.015 "mu1" (1.0 /. 15.0) result.Bayes.mean_service.(1);
  check_close ~eps:0.015 "mu2" (1.0 /. 12.0) result.Bayes.mean_service.(2)

let test_bayes_intervals_cover_truth () =
  let rng = Rng.create ~seed:608 () in
  let net = Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 15.0; 12.0 ] in
  let trace = Net_helpers.simulate_n rng net 400 in
  let mask = Obs.mask rng (Obs.Task_fraction 0.25) trace in
  let store = Store.of_trace ~observed:mask trace in
  let result = Bayes.run rng store in
  let truths = [| 0.1; 1.0 /. 15.0; 1.0 /. 12.0 |] in
  Array.iteri
    (fun q truth ->
      let lo, hi = result.Bayes.service_interval.(q) in
      Alcotest.(check bool)
        (Printf.sprintf "queue %d: %.4f in [%.4f, %.4f]" q truth lo hi)
        true
        (lo < hi && lo > 0.0)
      (* coverage of the individual interval is stochastic; require the
         truth to be within the interval widened by 50% *)
      ;
      let pad = 0.5 *. (hi -. lo) in
      Alcotest.(check bool)
        (Printf.sprintf "queue %d covered" q)
        true
        (truth >= lo -. pad && truth <= hi +. pad))
    truths

let test_bayes_interval_narrows_with_data () =
  let width frac seed =
    let rng = Rng.create ~seed () in
    let net = Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 15.0 ] in
    let trace = Net_helpers.simulate_n rng net 400 in
    let mask = Obs.mask rng (Obs.Task_fraction frac) trace in
    let store = Store.of_trace ~observed:mask trace in
    let result = Bayes.run rng store in
    let lo, hi = result.Bayes.service_interval.(1) in
    hi -. lo
  in
  let w_small = width 0.02 609 in
  let w_big = width 0.8 610 in
  Alcotest.(check bool)
    (Printf.sprintf "interval narrows: %.4f -> %.4f" w_small w_big)
    true (w_big < w_small)

let test_bayes_ess_positive () =
  let rng = Rng.create ~seed:611 () in
  let net = Topologies.tandem ~arrival_rate:8.0 ~service_rates:[ 12.0 ] in
  let trace = Net_helpers.simulate_n rng net 200 in
  let mask = Obs.mask rng (Obs.Task_fraction 0.3) trace in
  let store = Store.of_trace ~observed:mask trace in
  let result = Bayes.run rng store in
  Array.iteri
    (fun q e ->
      Alcotest.(check bool) (Printf.sprintf "queue %d ess %.1f" q e) true (e > 5.0))
    result.Bayes.ess;
  Alcotest.(check bool) "samples retained" true
    (Array.length result.Bayes.rate_samples.(0) > 50)

let test_bayes_config_validation () =
  let rng = Rng.create () in
  let net = Topologies.tandem ~arrival_rate:8.0 ~service_rates:[ 12.0 ] in
  let trace = Net_helpers.simulate_n rng net 20 in
  let store = Store.of_trace trace in
  List.iter
    (fun config ->
      match Bayes.run ~config rng store with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected config rejection")
    [
      { Bayes.default_config with Bayes.sweeps = 1 };
      { Bayes.default_config with Bayes.burn_in = 400 };
      { Bayes.default_config with Bayes.thin = 0 };
      { Bayes.default_config with Bayes.prior_rate = 0.0 };
    ]

let test_bayes_agrees_with_stem () =
  let run_both seed =
    let rng = Rng.create ~seed () in
    let net = Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 14.0 ] in
    let trace = Net_helpers.simulate_n rng net 400 in
    let mask = Obs.mask rng (Obs.Task_fraction 0.2) trace in
    let s1 = Store.of_trace ~observed:mask trace in
    let s2 = Store.of_trace ~observed:mask trace in
    let bayes = Bayes.run (Rng.create ~seed:(seed + 1) ()) s1 in
    let stem = Qnet_core.Stem.run (Rng.create ~seed:(seed + 1) ()) s2 in
    (bayes.Bayes.mean_service.(1), stem.Qnet_core.Stem.mean_service.(1))
  in
  let b, s = run_both 612 in
  Alcotest.(check bool)
    (Printf.sprintf "bayes %.4f vs stem %.4f" b s)
    true
    (Float.abs (b -. s) < 0.01)


(* ------------------------------------------------------------------ *)
(* Interval_report *)

module Interval_report = Qnet_core.Interval_report

let interval_trace () =
  (* two tasks at queue 1: first arrives 1.0 busy 1.0-2.0; second
     arrives 1.5, waits until 2.0, busy 2.0-3.0 *)
  Trace.create ~num_queues:2
    [
      ev 0 0 0 0.0 1.0;
      ev 0 1 1 1.0 2.0;
      ev 1 0 0 0.0 1.5;
      ev 1 1 1 1.5 3.0;
    ]

let test_interval_snapshot_counts () =
  let store = Store.of_trace (interval_trace ()) in
  let r = Interval_report.snapshot store ~window:(1.2, 2.5) in
  let q1 = r.Interval_report.queues.(1) in
  (* only task 1's event arrives inside [1.2, 2.5) *)
  Alcotest.(check int) "arrivals" 1 q1.Interval_report.arrivals;
  check_close "waiting of that event" 0.5 q1.Interval_report.mean_waiting;
  check_close "service of that event" 1.0 q1.Interval_report.mean_service;
  (* busy overlap: task0 served 1.2-2.0 (0.8) + task1 served 2.0-2.5
     (0.5) over width 1.3 *)
  check_close ~eps:1e-9 "utilization" (1.3 /. 1.3) q1.Interval_report.utilization

let test_interval_full_window_matches_trace () =
  let trace = interval_trace () in
  let store = Store.of_trace trace in
  let r = Interval_report.snapshot store ~window:(0.0, 10.0) in
  let q1 = r.Interval_report.queues.(1) in
  Alcotest.(check int) "all arrivals" 2 q1.Interval_report.arrivals;
  check_close "mean waiting" 0.25 q1.Interval_report.mean_waiting;
  check_close "mean service" 1.0 q1.Interval_report.mean_service

let test_interval_busiest () =
  let store = Store.of_trace (interval_trace ()) in
  let r = Interval_report.snapshot store ~window:(1.0, 3.0) in
  Alcotest.(check int) "queue 1 busiest" 1
    (Interval_report.busiest r).Interval_report.queue

let test_interval_bad_window () =
  let store = Store.of_trace (interval_trace ()) in
  match Interval_report.snapshot store ~window:(2.0, 1.0) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "reversed window rejected"

let test_interval_posterior_close_to_truth () =
  (* with 20% observation, the posterior window report should be close
     to the fully-observed snapshot *)
  let rng = Rng.create ~seed:620 () in
  let net = Topologies.tandem ~arrival_rate:8.0 ~service_rates:[ 10.0 ] in
  let trace = Net_helpers.simulate_n rng net 400 in
  let full = Store.of_trace trace in
  let window = (5.0, 20.0) in
  let truth = Interval_report.snapshot full ~window in
  let mask = Obs.mask rng (Obs.Task_fraction 0.2) trace in
  let store = Store.of_trace ~observed:mask trace in
  let params = Params.create ~rates:[| 8.0; 10.0 |] ~arrival_queue:0 in
  let post = Interval_report.posterior rng store params ~window in
  let tq = truth.Interval_report.queues.(1)
  and pq = post.Interval_report.queues.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "arrivals %d vs %d" pq.Interval_report.arrivals
       tq.Interval_report.arrivals)
    true
    (abs (pq.Interval_report.arrivals - tq.Interval_report.arrivals) <= 6);
  Alcotest.(check bool)
    (Printf.sprintf "utilization %.3f vs %.3f" pq.Interval_report.utilization
       tq.Interval_report.utilization)
    true
    (Float.abs (pq.Interval_report.utilization -. tq.Interval_report.utilization)
     < 0.12)

let test_interval_pp_runs () =
  let store = Store.of_trace (interval_trace ()) in
  let r = Interval_report.snapshot store ~window:(0.0, 3.0) in
  let s = Format.asprintf "%a" Interval_report.pp r in
  Alcotest.(check bool) "prints" true (String.length s > 20)

let () =
  Alcotest.run "qnet_extensions"
    [
      ( "move-event",
        [
          Alcotest.test_case "relink" `Quick test_move_event_relinks;
          Alcotest.test_case "insert in middle" `Quick test_move_event_insert_in_middle;
          Alcotest.test_case "rejections" `Quick test_move_event_rejections;
          Alcotest.test_case "downstream untouched" `Quick
            test_move_event_preserves_services_elsewhere;
          Alcotest.test_case "restore undoes a move" `Quick test_restore_undoes_move;
          Alcotest.test_case "departure-only restore" `Quick
            test_departure_only_restore_keeps_structure;
        ] );
      ( "path-move",
        [
          Alcotest.test_case "posterior, observed departure" `Slow
            test_route_posterior_observed_departure;
          Alcotest.test_case "posterior, free departure" `Slow
            test_route_posterior_free_departure;
          Alcotest.test_case "sweep preserves validity" `Quick
            test_path_sweep_preserves_validity;
          Alcotest.test_case "stats consistent" `Quick test_path_sweep_stats_consistent;
          Alcotest.test_case "ineligible cases" `Quick test_ineligible_cases;
          Alcotest.test_case "recovers scrambled routes" `Slow
            test_route_recovery_from_scrambled_assignment;
        ] );
      ( "interval-report",
        [
          Alcotest.test_case "snapshot counts" `Quick test_interval_snapshot_counts;
          Alcotest.test_case "full window" `Quick test_interval_full_window_matches_trace;
          Alcotest.test_case "busiest" `Quick test_interval_busiest;
          Alcotest.test_case "bad window" `Quick test_interval_bad_window;
          Alcotest.test_case "posterior near truth" `Slow
            test_interval_posterior_close_to_truth;
          Alcotest.test_case "printer" `Quick test_interval_pp_runs;
        ] );
      ( "bayes",
        [
          Alcotest.test_case "recovers tandem" `Slow test_bayes_recovers_tandem;
          Alcotest.test_case "intervals cover truth" `Slow test_bayes_intervals_cover_truth;
          Alcotest.test_case "interval narrows" `Slow test_bayes_interval_narrows_with_data;
          Alcotest.test_case "ess positive" `Quick test_bayes_ess_positive;
          Alcotest.test_case "config validation" `Quick test_bayes_config_validation;
          Alcotest.test_case "agrees with StEM" `Slow test_bayes_agrees_with_stem;
        ] );
    ]
