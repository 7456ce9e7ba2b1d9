(* Tests for the classical queueing-theory library. *)

module Mm1 = Qnet_analytic.Mm1
module Jackson = Qnet_analytic.Jackson
module Topologies = Qnet_des.Topologies
module Network = Qnet_des.Network
module Trace = Qnet_trace.Trace
module Rng = Qnet_prob.Rng
module Stats = Qnet_prob.Statistics
module D = Qnet_prob.Distributions

let check_close ?(eps = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let check_rel ?(eps = 0.05) name expected actual =
  let denom = Float.max (Float.abs expected) 1e-30 in
  if Float.abs (expected -. actual) /. denom > eps then
    Alcotest.failf "%s: expected %.6g, got %.6g" name expected actual

let test_mm1_formulas () =
  let arrival_rate = 3.0 and service_rate = 5.0 in
  check_close "rho" 0.6 (Mm1.utilization ~arrival_rate ~service_rate);
  check_close "W" 0.5 (Mm1.mean_response_time ~arrival_rate ~service_rate);
  check_close "Wq" 0.3 (Mm1.mean_waiting_time ~arrival_rate ~service_rate)

let test_mm1_distribution () =
  (* the sojourn time is Exponential(mu - lambda): its 95th percentile
     is log 20 / (mu - lambda) *)
  let arrival_rate = 1.0 and service_rate = 2.0 in
  let x = log 20.0 /. (service_rate -. arrival_rate) in
  check_close ~eps:1e-12 "95th percentile" 0.95
    (Mm1.response_time_cdf ~arrival_rate ~service_rate x)

let test_mm1_rejects_unstable () =
  (match Mm1.mean_response_time ~arrival_rate:5.0 ~service_rate:5.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected unstable rejection");
  match Mm1.mean_response_time ~arrival_rate:6.0 ~service_rate:5.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected unstable rejection"

let test_jackson_tandem () =
  let net = Topologies.tandem ~arrival_rate:3.0 ~service_rates:[ 5.0; 4.0 ] in
  let reports = Jackson.analyze ~arrival_rate:3.0 net in
  Alcotest.(check int) "two queues" 2 (Array.length reports);
  Array.iter
    (fun r ->
      check_close "visit ratio" 1.0 r.Jackson.visit_ratio;
      check_close "effective arrival" 3.0 r.Jackson.effective_arrival_rate;
      let expect =
        Mm1.mean_waiting_time ~arrival_rate:3.0 ~service_rate:r.Jackson.service_rate
      in
      check_close "waiting matches M/M/1" expect r.Jackson.mean_waiting_time)
    reports

let test_jackson_three_tier_visits () =
  let net =
    Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(2, 1, 4) ~service_rate:50.0 ()
  in
  let reports = Jackson.analyze ~arrival_rate:10.0 net in
  let by_queue = Hashtbl.create 8 in
  Array.iter (fun r -> Hashtbl.add by_queue r.Jackson.queue r) reports;
  (* tier 1 has 2 servers: visit ratio 1/2 each *)
  let r1 = Hashtbl.find by_queue 1 in
  check_close "tier1 visit" 0.5 r1.Jackson.visit_ratio;
  (* tier 2 single server sees everything *)
  let r3 = Hashtbl.find by_queue 3 in
  check_close "tier2 visit" 1.0 r3.Jackson.visit_ratio;
  let r4 = Hashtbl.find by_queue 4 in
  check_close "tier3 visit" 0.25 r4.Jackson.visit_ratio

let test_jackson_bottleneck () =
  let net =
    Topologies.three_tier ~arrival_rate:4.0 ~tier_sizes:(4, 1, 4) ~service_rate:5.0 ()
  in
  let reports = Jackson.analyze ~arrival_rate:4.0 net in
  let b = Jackson.bottleneck reports in
  (* the single-server tier 2 (queue index 5) carries all traffic *)
  Alcotest.(check int) "bottleneck queue" 5 b.Jackson.queue;
  check_close "bottleneck rho" 0.8 b.Jackson.utilization

let test_jackson_unstable_reported () =
  let net =
    Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 ()
  in
  let reports = Jackson.analyze ~arrival_rate:10.0 net in
  let overloaded = Array.to_list reports |> List.filter (fun r -> r.Jackson.queue = 1) in
  match overloaded with
  | [ r ] ->
      check_close "rho = 2" 2.0 r.Jackson.utilization;
      Alcotest.(check bool) "infinite waiting" true (r.Jackson.mean_waiting_time = infinity)
  | _ -> Alcotest.fail "queue 1 missing"

let test_jackson_rejects_non_exponential () =
  let net = Topologies.tandem ~arrival_rate:1.0 ~service_rates:[ 2.0 ] in
  let net = Network.with_service net 1 (D.Deterministic 0.5) in
  match Jackson.analyze ~arrival_rate:1.0 net with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of deterministic service"

let test_jackson_feedback_visits () =
  let net = Topologies.feedback ~arrival_rate:1.0 ~service_rate:10.0 ~loop_prob:0.25 in
  let reports = Jackson.analyze ~arrival_rate:1.0 net in
  let r = reports.(Array.length reports - 1) in
  check_close ~eps:1e-9 "feedback visit ratio" (4.0 /. 3.0) r.Jackson.visit_ratio

let test_mg1_against_simulation () =
  (* hyperexponential service: heavy variance, the Pollaczek-Khinchine
     mean wait lambda E[S^2] / (2 (1 - rho)) must match a long
     simulation *)
  let lambda = 2.0 in
  let service = D.Hyperexponential [| (0.7, 10.0); (0.3, 1.5) |] in
  let mean = D.mean service in
  let second_moment = D.variance service +. (mean *. mean) in
  let predicted = lambda *. second_moment /. (2.0 *. (1.0 -. (lambda *. mean))) in
  let net = Topologies.single_mm1 ~arrival_rate:lambda ~service_rate:1.0 in
  let net = Network.with_service net 1 service in
  let rng = Rng.create ~seed:88 () in
  let trace = Net_helpers.simulate_n rng net 60_000 in
  let w = Trace.waiting_times trace 1 in
  let tail = Array.sub w 20_000 40_000 in
  check_rel ~eps:0.1 "PK vs simulation" predicted (Stats.mean tail)

let test_jackson_end_to_end_vs_simulation () =
  (* Jackson's product form gives the end-to-end mean response, the
     sum over queues of visits times mean response; the simulator must
     agree on a stable tandem *)
  let lambda = 2.0 in
  let net = Topologies.tandem ~arrival_rate:lambda ~service_rates:[ 4.0; 3.5; 5.0 ] in
  let reports = Jackson.analyze ~arrival_rate:lambda net in
  let predicted =
    Array.fold_left
      (fun acc r -> acc +. (r.Jackson.visit_ratio *. r.Jackson.mean_response_time))
      0.0 reports
  in
  let rng = Rng.create ~seed:77 () in
  let trace = Net_helpers.simulate_n rng net 50_000 in
  (* per task, from system entry (its initial event's departure) to
     its last departure; events are sorted by (task, arrival) *)
  let spans =
    Array.fold_left
      (fun acc (e : Trace.event) ->
        match acc with
        | (task, entry, _) :: rest when task = e.task -> (task, entry, e.departure) :: rest
        | _ -> (e.task, e.departure, e.departure) :: acc)
      [] trace.Trace.events
  in
  let e2e = Array.of_list (List.rev_map (fun (_, entry, last) -> last -. entry) spans) in
  let tail = Array.sub e2e 15_000 35_000 in
  check_rel ~eps:0.07 "end-to-end response" predicted (Stats.mean tail)

let () =
  Alcotest.run "qnet_analytic"
    [
      ( "mm1",
        [
          Alcotest.test_case "formulas" `Quick test_mm1_formulas;
          Alcotest.test_case "distributions" `Quick test_mm1_distribution;
          Alcotest.test_case "rejects unstable" `Quick test_mm1_rejects_unstable;
        ] );
      ("mg1", [ Alcotest.test_case "PK vs simulation" `Slow test_mg1_against_simulation ]);
      ( "jackson",
        [
          Alcotest.test_case "tandem" `Quick test_jackson_tandem;
          Alcotest.test_case "three-tier visits" `Quick test_jackson_three_tier_visits;
          Alcotest.test_case "bottleneck" `Quick test_jackson_bottleneck;
          Alcotest.test_case "unstable queues" `Quick test_jackson_unstable_reported;
          Alcotest.test_case "rejects non-exponential" `Quick
            test_jackson_rejects_non_exponential;
          Alcotest.test_case "feedback visit ratio" `Quick test_jackson_feedback_visits;
          Alcotest.test_case "end-to-end vs simulation" `Slow
            test_jackson_end_to_end_vs_simulation;
        ] );
    ]
