(* Tests for the discrete-event simulator: heap, workloads, networks,
   topologies — including agreement with queueing theory. *)

module Heap = Qnet_des.Event_heap
module Workload = Qnet_des.Workload
module Network = Qnet_des.Network
module Topologies = Qnet_des.Topologies
module Trace = Qnet_trace.Trace
module Rng = Qnet_prob.Rng
module D = Qnet_prob.Distributions
module Stats = Qnet_prob.Statistics
module Mm1 = Qnet_analytic.Mm1

let check_close ?(eps = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let check_rel ?(eps = 0.05) name expected actual =
  let denom = Float.max (Float.abs expected) 1e-30 in
  if Float.abs (expected -. actual) /. denom > eps then
    Alcotest.failf "%s: expected %.6g, got %.6g (rel %.3g)" name expected actual
      (Float.abs (expected -. actual) /. denom)

(* ------------------------------------------------------------------ *)
(* Event heap *)

let test_heap_ordering () =
  let h = Heap.create () in
  List.iter (fun (t, v) -> Heap.push h t v) [ (3.0, "c"); (1.0, "a"); (2.0, "b") ];
  Alcotest.(check int) "length" 3 (Heap.length h);
  Alcotest.(check (option (pair (float 0.0) string))) "peek" (Some (1.0, "a")) (Heap.peek h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop a" (Some (1.0, "a")) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop b" (Some (2.0, "b")) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop c" (Some (3.0, "c")) (Heap.pop h);
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option (pair (float 0.0) string))) "pop empty" None (Heap.pop h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iteri (fun i v -> Heap.push h 1.0 (i, v)) [ "x"; "y"; "z" ];
  let order = List.init 3 (fun _ -> snd (Option.get (Heap.pop h)) |> snd) in
  Alcotest.(check (list string)) "insertion order on ties" [ "x"; "y"; "z" ] order

let test_heap_random_sort () =
  let rng = Rng.create ~seed:1 () in
  let n = 5000 in
  let xs = Array.init n (fun _ -> Rng.float_unit rng) in
  let h = Heap.create () in
  Array.iter (fun x -> Heap.push h x x) xs;
  let out = Array.init n (fun _ -> fst (Option.get (Heap.pop h))) in
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  Alcotest.(check bool) "heap sorts" true (out = sorted)

let test_heap_interleaved () =
  let h = Heap.create () in
  Heap.push h 5.0 5;
  Heap.push h 1.0 1;
  Alcotest.(check (option (pair (float 0.0) int))) "pop 1" (Some (1.0, 1)) (Heap.pop h);
  Heap.push h 0.5 0;
  Heap.push h 3.0 3;
  Alcotest.(check (option (pair (float 0.0) int))) "pop 0" (Some (0.5, 0)) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) int))) "pop 3" (Some (3.0, 3)) (Heap.pop h);
  Alcotest.(check (option (pair (float 0.0) int))) "pop 5" (Some (5.0, 5)) (Heap.pop h)

let test_heap_rejects_nan () =
  let h = Heap.create () in
  Alcotest.check_raises "nan" (Invalid_argument "Event_heap.push: NaN time") (fun () ->
      Heap.push h nan ())

let test_heap_of_list () =
  let h = Heap.of_list [ (2.0, 'b'); (1.0, 'a') ] in
  Alcotest.(check (option (pair (float 0.0) char))) "min" (Some (1.0, 'a')) (Heap.pop h)

(* ------------------------------------------------------------------ *)
(* Workloads *)

let test_poisson_entry_times () =
  let rng = Rng.create ~seed:2 () in
  let xs = Workload.generate rng (Workload.Poisson 4.0) 50_000 in
  Alcotest.(check int) "count" 50_000 (Array.length xs);
  (* strictly increasing *)
  for i = 1 to Array.length xs - 1 do
    if xs.(i) <= xs.(i - 1) then Alcotest.fail "entries not strictly increasing"
  done;
  (* gaps are Exp(4): check the mean *)
  let gaps = Array.init (Array.length xs - 1) (fun i -> xs.(i + 1) -. xs.(i)) in
  check_rel ~eps:0.02 "mean gap" 0.25 (Stats.mean gaps);
  (* KS against exponential *)
  let ks = Stats.ks_statistic_against gaps (D.cdf (D.Exponential 4.0)) in
  Alcotest.(check bool) "gap distribution" true (ks < 1.95 /. sqrt 49999.0)

let test_ramp_rate_profile () =
  let rng = Rng.create ~seed:3 () in
  let w = Workload.Ramp { initial_rate = 1.0; final_rate = 9.0; duration = 100.0 } in
  let xs = Workload.generate rng w 100_000 in
  (* count arrivals in the first and last fifth of the ramp: expected
     integral of the rate: first 20s ~ (1 + 2.6)/2 * 20 = 36; last 20s
     of the ramp ~ (7.4 + 9)/2 * 20 = 164 *)
  let count lo hi = Array.fold_left (fun acc x -> if x >= lo && x < hi then acc + 1 else acc) 0 xs in
  let early = count 0.0 20.0 and late = count 80.0 100.0 in
  check_rel ~eps:0.2 "early count" 36.0 (float_of_int early);
  check_rel ~eps:0.1 "late count" 164.0 (float_of_int late);
  (* after the ramp the rate plateaus at 9 *)
  let plateau = count 100.0 200.0 in
  check_rel ~eps:0.1 "plateau count" 900.0 (float_of_int plateau)

let test_mmpp_burstier_than_poisson () =
  let rng = Rng.create ~seed:4 () in
  let w =
    Workload.Mmpp2 { rate0 = 1.0; rate1 = 20.0; switch01 = 0.1; switch10 = 0.1 }
  in
  let xs = Workload.generate rng w 20_000 in
  let gaps = Array.init (Array.length xs - 1) (fun i -> xs.(i + 1) -. xs.(i)) in
  let scv = Stats.variance gaps /. (Stats.mean gaps ** 2.0) in
  Alcotest.(check bool)
    (Printf.sprintf "MMPP gaps scv > 1.5 (got %.2f)" scv)
    true (scv > 1.5)

let test_interarrival_deterministic () =
  let rng = Rng.create ~seed:5 () in
  let xs = Workload.generate rng (Workload.Interarrival (D.Deterministic 0.5)) 10 in
  Array.iteri
    (fun i x -> check_close "regular spacing" (0.5 *. float_of_int (i + 1)) x)
    xs

let test_workload_validation () =
  let rng = Rng.create () in
  (match Workload.generate rng (Workload.Poisson 0.0) 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid Poisson rate");
  match
    Workload.generate rng
      (Workload.Ramp { initial_rate = -1.0; final_rate = 1.0; duration = 1.0 })
      1
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected invalid ramp"

(* ------------------------------------------------------------------ *)
(* Network simulation *)

let test_simulate_produces_valid_trace () =
  let rng = Rng.create ~seed:6 () in
  let net = Topologies.tandem ~arrival_rate:5.0 ~service_rates:[ 8.0; 9.0 ] in
  let trace = Net_helpers.simulate_n rng net 300 in
  Alcotest.(check int) "events" 900 (Array.length trace.Trace.events);
  Alcotest.(check int) "tasks" 300 trace.Trace.num_tasks

let test_simulate_rejects_bad_entries () =
  let rng = Rng.create () in
  let net = Topologies.single_mm1 ~arrival_rate:1.0 ~service_rate:2.0 in
  (match Network.simulate rng net ~entries:[| 0.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "entry at 0 rejected");
  match Network.simulate rng net ~entries:[| 2.0; 1.0 |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-increasing entries rejected"

let test_fifo_invariant () =
  (* within each queue, departures must follow arrival order *)
  let rng = Rng.create ~seed:7 () in
  let net =
    Topologies.three_tier ~arrival_rate:8.0 ~tier_sizes:(2, 1, 2) ~service_rate:6.0 ()
  in
  let trace = Net_helpers.simulate_n rng net 500 in
  for q = 0 to 5 do
    let evs = Trace.queue_events trace q in
    for i = 1 to Array.length evs - 1 do
      if evs.(i).Trace.departure < evs.(i - 1).Trace.departure -. 1e-12 then
        Alcotest.failf "queue %d: departure order violates FIFO" q
    done
  done

let test_single_server_no_overlap () =
  (* service intervals at a queue must not overlap *)
  let rng = Rng.create ~seed:8 () in
  let net = Topologies.single_mm1 ~arrival_rate:5.0 ~service_rate:6.0 in
  let trace = Net_helpers.simulate_n rng net 400 in
  let evs = Trace.queue_events trace 1 in
  let s = Trace.service_times trace 1 in
  let last_end = ref 0.0 in
  Array.iteri
    (fun i e ->
      let start = e.Trace.departure -. s.(i) in
      if start < !last_end -. 1e-9 then Alcotest.fail "service intervals overlap";
      last_end := e.Trace.departure)
    evs

let test_mm1_against_theory () =
  (* long M/M/1 run must agree with steady-state formulas *)
  let rng = Rng.create ~seed:9 () in
  let lambda = 4.0 and mu = 5.0 in
  let net = Topologies.single_mm1 ~arrival_rate:lambda ~service_rate:mu in
  let trace = Net_helpers.simulate_n rng net 60_000 in
  let resp = Trace.response_times trace 1 in
  (* discard warmup third *)
  let tail = Array.sub resp 20_000 40_000 in
  check_rel ~eps:0.08 "mean response vs 1/(mu-lambda)"
    (Mm1.mean_response_time ~arrival_rate:lambda ~service_rate:mu)
    (Stats.mean tail);
  let w = Trace.waiting_times trace 1 in
  let wt = Array.sub w 20_000 40_000 in
  check_rel ~eps:0.12 "mean waiting vs rho/(mu-lambda)"
    (Mm1.mean_waiting_time ~arrival_rate:lambda ~service_rate:mu)
    (Stats.mean wt);
  check_rel ~eps:0.05 "utilization" (lambda /. mu) (Trace.utilization trace 1)

let test_mm1_response_distribution () =
  (* sojourn time of M/M/1 is Exp(mu - lambda) *)
  let rng = Rng.create ~seed:10 () in
  let lambda = 2.0 and mu = 4.0 in
  let net = Topologies.single_mm1 ~arrival_rate:lambda ~service_rate:mu in
  let trace = Net_helpers.simulate_n rng net 40_000 in
  let resp = Array.sub (Trace.response_times trace 1) 10_000 30_000 in
  let ks =
    Stats.ks_statistic_against resp (fun x ->
        Mm1.response_time_cdf ~arrival_rate:lambda ~service_rate:mu x)
  in
  Alcotest.(check bool) (Printf.sprintf "KS %.4f" ks) true (ks < 0.02)

let test_tandem_both_queues_mm1 () =
  (* Burke's theorem: the departure process of an M/M/1 queue is
     Poisson, so the second queue in a tandem is itself M/M/1 *)
  let rng = Rng.create ~seed:11 () in
  let lambda = 3.0 in
  let net = Topologies.tandem ~arrival_rate:lambda ~service_rates:[ 5.0; 4.5 ] in
  let trace = Net_helpers.simulate_n rng net 50_000 in
  let resp2 = Array.sub (Trace.response_times trace 2) 15_000 30_000 in
  check_rel ~eps:0.08 "tandem second queue response"
    (Mm1.mean_response_time ~arrival_rate:lambda ~service_rate:4.5)
    (Stats.mean resp2)

let test_three_tier_balancing () =
  let rng = Rng.create ~seed:12 () in
  let net =
    Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(4, 2, 1) ~service_rate:50.0 ()
  in
  let trace = Net_helpers.simulate_n rng net 20_000 in
  (* tier 1 queues 1-4 should each get about a quarter of the tasks *)
  for q = 1 to 4 do
    let n = Array.length (Trace.queue_events trace q) in
    check_rel ~eps:0.1
      (Printf.sprintf "tier1 queue %d share" q)
      5000.0 (float_of_int n)
  done;
  (* tier 3 queue (index 7) sees every task *)
  Alcotest.(check int) "tier3 sees all" 20_000
    (Array.length (Trace.queue_events trace 7))

let test_three_tier_weighted_balancing () =
  let rng = Rng.create ~seed:13 () in
  let weights = [| [| 3.0; 1.0 |]; [| 1.0 |]; [| 1.0 |] |] in
  let net =
    Topologies.three_tier ~balancer_weights:weights ~arrival_rate:10.0
      ~tier_sizes:(2, 1, 1) ~service_rate:50.0 ()
  in
  let trace = Net_helpers.simulate_n rng net 20_000 in
  let n1 = Array.length (Trace.queue_events trace 1) in
  check_rel ~eps:0.05 "weighted share" 15_000.0 (float_of_int n1)

let test_feedback_visits () =
  let rng = Rng.create ~seed:14 () in
  let net = Topologies.feedback ~arrival_rate:1.0 ~service_rate:20.0 ~loop_prob:0.5 in
  let trace = Net_helpers.simulate_n rng net 5_000 in
  (* expected visits to the server = 1/(1-0.5) = 2 per task *)
  let visits =
    float_of_int (Array.length (Trace.queue_events trace 1)) /. 5000.0
  in
  check_rel ~eps:0.05 "feedback visit count" 2.0 visits

let test_simulation_deterministic_under_seed () =
  let net = Topologies.tandem ~arrival_rate:2.0 ~service_rates:[ 3.0 ] in
  let t1 = Net_helpers.simulate_n (Rng.create ~seed:42 ()) net 100 in
  let t2 = Net_helpers.simulate_n (Rng.create ~seed:42 ()) net 100 in
  Array.iteri
    (fun i e ->
      let e' = t2.Trace.events.(i) in
      if e.Trace.departure <> e'.Trace.departure then
        Alcotest.fail "same seed must reproduce the trace")
    t1.Trace.events

let test_network_accessors () =
  let net = Topologies.tandem ~arrival_rate:2.0 ~service_rates:[ 3.0; 4.0 ] in
  Alcotest.(check int) "num_queues" 3 (Network.num_queues net);
  Alcotest.(check int) "arrival queue" 0 (Network.arrival_queue net);
  (match Network.service net 1 with
  | D.Exponential r -> check_close "rate" 3.0 r
  | _ -> Alcotest.fail "expected exponential");
  let net' = Network.with_service net 1 (D.Erlang (2, 6.0)) in
  (match Network.service net' 1 with
  | D.Erlang (2, r) -> check_close "updated" 6.0 r
  | _ -> Alcotest.fail "expected erlang");
  (* original unchanged *)
  match Network.service net 1 with
  | D.Exponential _ -> ()
  | _ -> Alcotest.fail "functional update must not mutate"

let test_non_exponential_service () =
  (* M/D/1: deterministic service halves the waiting time vs M/M/1
     (Pollaczek–Khinchine with scv 0) *)
  let rng = Rng.create ~seed:15 () in
  let lambda = 4.0 and mu = 5.0 in
  let net = Topologies.single_mm1 ~arrival_rate:lambda ~service_rate:mu in
  let net = Network.with_service net 1 (D.Deterministic (1.0 /. mu)) in
  let trace = Net_helpers.simulate_n rng net 60_000 in
  let w = Array.sub (Trace.waiting_times trace 1) 20_000 40_000 in
  let mm1_wait = Mm1.mean_waiting_time ~arrival_rate:lambda ~service_rate:mu in
  check_rel ~eps:0.1 "M/D/1 waiting is half of M/M/1" (mm1_wait /. 2.0) (Stats.mean w)

let () =
  Alcotest.run "qnet_des"
    [
      ( "heap",
        [
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "random sort" `Quick test_heap_random_sort;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "rejects NaN" `Quick test_heap_rejects_nan;
          Alcotest.test_case "of_list" `Quick test_heap_of_list;
        ] );
      ( "workload",
        [
          Alcotest.test_case "poisson entries" `Slow test_poisson_entry_times;
          Alcotest.test_case "ramp profile" `Slow test_ramp_rate_profile;
          Alcotest.test_case "mmpp burstiness" `Slow test_mmpp_burstier_than_poisson;
          Alcotest.test_case "deterministic interarrival" `Quick
            test_interarrival_deterministic;
          Alcotest.test_case "validation" `Quick test_workload_validation;
        ] );
      ( "simulation",
        [
          Alcotest.test_case "valid trace" `Quick test_simulate_produces_valid_trace;
          Alcotest.test_case "rejects bad entries" `Quick test_simulate_rejects_bad_entries;
          Alcotest.test_case "FIFO invariant" `Quick test_fifo_invariant;
          Alcotest.test_case "no service overlap" `Quick test_single_server_no_overlap;
          Alcotest.test_case "M/M/1 vs theory" `Slow test_mm1_against_theory;
          Alcotest.test_case "M/M/1 response distribution" `Slow
            test_mm1_response_distribution;
          Alcotest.test_case "tandem via Burke" `Slow test_tandem_both_queues_mm1;
          Alcotest.test_case "three-tier balancing" `Slow test_three_tier_balancing;
          Alcotest.test_case "weighted balancing" `Slow test_three_tier_weighted_balancing;
          Alcotest.test_case "feedback visits" `Slow test_feedback_visits;
          Alcotest.test_case "seed determinism" `Quick test_simulation_deterministic_under_seed;
          Alcotest.test_case "network accessors" `Quick test_network_accessors;
          Alcotest.test_case "M/D/1 waiting" `Slow test_non_exponential_service;
        ] );
    ]
