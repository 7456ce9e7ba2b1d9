(* Tests for the event store: pointer topology, latent arithmetic,
   validation, likelihood. *)

module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Trace = Qnet_trace.Trace
module Topologies = Qnet_des.Topologies
module Rng = Qnet_prob.Rng

let check_close ?(eps = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let ev task state queue arrival departure =
  { Trace.task; state; queue; arrival; departure }

(* tasks 0 and 1 through q0 -> q1 -> q2 with interleaving at q1 *)
let two_task_trace () =
  Trace.create ~num_queues:3
    [
      ev 0 0 0 0.0 1.0;
      ev 0 1 1 1.0 2.0;
      ev 0 2 2 2.0 2.5;
      ev 1 0 0 0.0 1.5;
      ev 1 1 1 1.5 3.0;
      ev 1 2 2 3.0 3.4;
    ]

let test_pointer_topology () =
  let store = Store.of_trace (two_task_trace ()) in
  Alcotest.(check int) "events" 6 (Store.num_events store);
  Alcotest.(check int) "tasks" 2 (Store.num_tasks store);
  Alcotest.(check int) "queues" 3 (Store.num_queues store);
  Alcotest.(check int) "arrival queue" 0 (Store.arrival_queue store);
  (* canonical order: task 0 events 0,1,2; task 1 events 3,4,5 *)
  Alcotest.(check int) "pi of initial" (-1) (Store.pi store 0);
  Alcotest.(check int) "pi chain" 0 (Store.pi store 1);
  Alcotest.(check int) "pi chain" 1 (Store.pi store 2);
  Alcotest.(check int) "pi_inv chain" 1 (Store.pi_inv store 0);
  Alcotest.(check int) "pi_inv last" (-1) (Store.pi_inv store 2);
  (* rho at q1: task 0's q1 event (index 1) precedes task 1's (index 4) *)
  Alcotest.(check int) "rho first at queue" (-1) (Store.rho store 1);
  Alcotest.(check int) "rho second at queue" 1 (Store.rho store 4);
  Alcotest.(check int) "rho_inv" 4 (Store.rho_inv store 1);
  (* q0 initial events ordered by departure: index 0 then 3 *)
  Alcotest.(check int) "rho q0" 0 (Store.rho store 3);
  Alcotest.(check int) "rho_inv q0" 3 (Store.rho_inv store 0)

let test_arrival_service_waiting () =
  let store = Store.of_trace (two_task_trace ()) in
  check_close "arrival of initial" 0.0 (Store.arrival store 0);
  check_close "arrival = pi departure" 1.0 (Store.arrival store 1);
  check_close "service event 1" 1.0 (Store.service store 1);
  check_close "waiting event 1" 0.0 (Store.waiting store 1);
  (* task 1 at q1: arrives 1.5, waits for task 0 until 2.0 *)
  check_close "start of event 4" 2.0 (Store.start_service store 4);
  check_close "service event 4" 1.0 (Store.service store 4);
  check_close "waiting event 4" 0.5 (Store.waiting store 4)

let test_set_departure_propagates_to_arrival () =
  let mask = [| true; false; true; true; true; true |] in
  let store = Store.of_trace ~observed:mask (two_task_trace ()) in
  Store.set_departure store 1 1.8;
  check_close "departure updated" 1.8 (Store.departure store 1);
  (* the within-task successor's arrival follows automatically *)
  check_close "successor arrival" 1.8 (Store.arrival store 2)

let test_set_departure_rejects_observed () =
  let store = Store.of_trace (two_task_trace ()) in
  Alcotest.check_raises "observed"
    (Invalid_argument "Event_store.set_departure: event is observed") (fun () ->
      Store.set_departure store 0 5.0)

let test_events_of_task_and_queue () =
  let store = Store.of_trace (two_task_trace ()) in
  Alcotest.(check (array int)) "task 0" [| 0; 1; 2 |] (Store.events_of_task store 0);
  Alcotest.(check (array int)) "task 1" [| 3; 4; 5 |] (Store.events_of_task store 1);
  Alcotest.(check (array int)) "queue 1 order" [| 1; 4 |] (Store.events_at_queue store 1);
  Alcotest.(check (array int)) "queue 0 order" [| 0; 3 |] (Store.events_at_queue store 0)

let test_unobserved_listing () =
  let mask = [| true; false; true; false; true; false |] in
  let store = Store.of_trace ~observed:mask (two_task_trace ()) in
  Alcotest.(check (array int)) "unobserved" [| 1; 3; 5 |] (Store.unobserved_events store)

let test_validate_ok_and_violation () =
  let mask = [| true; false; true; true; true; true |] in
  let store = Store.of_trace ~observed:mask (two_task_trace ()) in
  (match Store.validate store with Ok () -> () | Error m -> Alcotest.fail m);
  (* push event 1's departure past its successor's departure: negative
     service downstream *)
  Store.set_departure store 1 2.7;
  match Store.validate store with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected violation"

let test_to_trace_roundtrip () =
  let trace = two_task_trace () in
  let store = Store.of_trace trace in
  let trace' = Store.to_trace store in
  Alcotest.(check int) "events" 6 (Array.length trace'.Trace.events);
  Array.iteri
    (fun i e ->
      let e' = trace'.Trace.events.(i) in
      check_close "arrival" e.Trace.arrival e'.Trace.arrival;
      check_close "departure" e.Trace.departure e'.Trace.departure)
    trace.Trace.events

let test_copy_isolation () =
  let mask = [| true; false; true; true; true; true |] in
  let store = Store.of_trace ~observed:mask (two_task_trace ()) in
  let copy = Store.copy store in
  Store.set_departure store 1 1.9;
  check_close "copy untouched" 2.0 (Store.departure copy 1);
  check_close "original changed" 1.9 (Store.departure store 1)

let test_log_likelihood_matches_manual () =
  let store = Store.of_trace (two_task_trace ()) in
  let params = Params.create ~rates:[| 1.0; 2.0; 3.0 |] ~arrival_queue:0 in
  (* services: q0: 1.0, 0.5; q1: 1.0, 1.0; q2: 0.5, 0.4 *)
  let manual =
    (log 1.0 -. 1.0) +. (log 1.0 -. 0.5)
    +. (log 2.0 -. 2.0) +. (log 2.0 -. 2.0)
    +. (log 3.0 -. 1.5) +. (log 3.0 -. 1.2)
  in
  check_close ~eps:1e-9 "log likelihood" manual (Store.log_likelihood store params)

let test_sufficient_stats () =
  let store = Store.of_trace (two_task_trace ()) in
  let stats = Store.service_sufficient_stats store in
  let c0, s0 = stats.(0) in
  Alcotest.(check int) "q0 count" 2 c0;
  check_close "q0 sum (telescopes to last entry)" 1.5 s0;
  let c1, s1 = stats.(1) in
  Alcotest.(check int) "q1 count" 2 c1;
  check_close "q1 sum" 2.0 s1

let test_mean_waiting_and_service_by_queue () =
  let store = Store.of_trace (two_task_trace ()) in
  let w = Store.mean_waiting_by_queue store in
  check_close "q1 mean waiting" 0.25 w.(1);
  check_close "q2 mean waiting" 0.0 w.(2);
  let s = Store.mean_service_by_queue store in
  check_close "q1 mean service" 1.0 s.(1);
  check_close "q2 mean service" 0.45 s.(2)

let test_rejects_queue_revisit_of_q0 () =
  let bad =
    [
      ev 0 0 0 0.0 1.0;
      ev 0 1 1 1.0 2.0;
      ev 0 2 0 2.0 3.0;
      (* returns to q0: forbidden *)
    ]
  in
  let trace = Trace.create ~num_queues:2 bad in
  match Store.of_trace trace with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected rejection of q0 revisit"

(* [Trace.t] is a public record, so its events may arrive unsorted;
   the store's chains assume (task, arrival) order, and building one
   from anything else must fail instead of giving a non-initial event
   arrival 0. *)
let unsorted_traces =
  let two_tasks = two_task_trace () in
  let e = two_tasks.Trace.events in
  [
    ( "tasks interleaved",
      { two_tasks with Trace.events = [| e.(0); e.(3); e.(1); e.(4); e.(2); e.(5) |] } );
    ( "arrivals descending within a task",
      { two_tasks with Trace.events = [| e.(0); e.(2); e.(1); e.(3); e.(4); e.(5) |] } );
  ]

let test_rejects_unsorted_trace () =
  List.iter
    (fun (name, trace) ->
      Alcotest.check_raises name
        (Invalid_argument "Event_store.of_trace: event 2 is out of (task, arrival) order")
        (fun () -> ignore (Store.of_trace trace)))
    unsorted_traces

let test_mask_length_checked () =
  let trace = two_task_trace () in
  match Store.of_trace ~observed:[| true |] trace with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected mask length check"

let test_large_simulated_store_consistency () =
  (* build from a simulated trace and check service/waiting agree with
     the trace's own computation *)
  let rng = Rng.create ~seed:42 () in
  let net = Topologies.three_tier ~arrival_rate:8.0 ~tier_sizes:(2, 1, 2) ~service_rate:7.0 () in
  let trace = Net_helpers.simulate_n rng net 400 in
  let store = Store.of_trace trace in
  (match Store.validate store with Ok () -> () | Error m -> Alcotest.fail m);
  for q = 0 to Store.num_queues store - 1 do
    let via_trace = Trace.service_times trace q in
    let order = Store.events_at_queue store q in
    Array.iteri
      (fun k i ->
        check_close ~eps:1e-9
          (Printf.sprintf "service q%d event %d" q k)
          via_trace.(k) (Store.service store i))
      order
  done

(* Golden structure: everything [of_trace] derives from a trace — the
   dense task index, the π and ρ chains both ways, the per-queue heads,
   the latent indices, the per-task event lists and the task ids that
   [to_trace] maps back to — pinned on a masked three-tier (1-2-4)
   store and on a feedback store whose task ids are renumbered to
   descending, negative and non-contiguous values. *)
let structure_digest store =
  let b = Buffer.create 4096 in
  let add k = Buffer.add_string b (string_of_int k); Buffer.add_char b ',' in
  add (Store.num_tasks store);
  add (Store.arrival_queue store);
  for i = 0 to Store.num_events store - 1 do
    List.iter add
      [ Store.task store i; Store.state store i; Store.queue store i;
        Store.pi store i; Store.pi_inv store i; Store.rho store i; Store.rho_inv store i;
        Bool.to_int (Store.observed store i) ]
  done;
  Array.iter add (Store.snapshot store).Store.s_heads;
  Array.iter add (Store.latent store);
  for k = 0 to Store.num_tasks store - 1 do
    Array.iter add (Store.events_of_task store k);
    Buffer.add_char b ';'
  done;
  Array.iter (fun e -> add e.Trace.task) (Store.to_trace store).Trace.events;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_structure () =
  let three_tier =
    let net =
      Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 ()
    in
    let trace = Net_helpers.simulate_n (Rng.create ~seed:501 ()) net 300 in
    let mask =
      Qnet_core.Observation.mask (Rng.create ~seed:502 ())
        (Qnet_core.Observation.Task_fraction 0.05) trace
    in
    Store.of_trace ~observed:mask trace
  in
  let feedback =
    let net = Topologies.feedback ~arrival_rate:3.0 ~service_rate:6.0 ~loop_prob:0.4 in
    let trace = Net_helpers.simulate_n (Rng.create ~seed:503 ()) net 200 in
    let trace =
      Trace.create ~num_queues:trace.Trace.num_queues
        (Array.to_list
           (Array.map
              (fun e -> { e with Trace.task = 50 - (7 * e.Trace.task) })
              trace.Trace.events))
    in
    let mask =
      Qnet_core.Observation.mask (Rng.create ~seed:504 ())
        (Qnet_core.Observation.Event_fraction 0.3) trace
    in
    Store.of_trace ~observed:mask trace
  in
  Alcotest.(check string) "three-tier" "7148b458503daff9b54c155f5630cd41"
    (structure_digest three_tier);
  Alcotest.(check string) "feedback" "612f95561bc1baea18d4a8c1c4ebba1e"
    (structure_digest feedback)

(* Bytes [f] allocates. *)
let allocated_bytes f =
  let w0 = Qnet_obs.Prof.allocated_words () in
  f ();
  (Qnet_obs.Prof.allocated_words () -. w0) *. float_of_int (Sys.word_size / 8)

(* The reductions run once per StEM iteration over every event, so
   they read the store's arrays in place: one fixed budget, the same
   for a 1k and a 10k store, bounds what a call allocates (its
   per-queue results: about 700 B at most with 8 queues). Boxing one
   float per event would cost over 15 KB at 1k. *)
let test_reductions_allocation () =
  let budget = 1024.0 in
  let net = Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 () in
  let params = Params.of_network net in
  List.iter
    (fun tasks ->
      let trace = Net_helpers.simulate_n (Rng.create ~seed:505 ()) net tasks in
      let store = Store.of_trace trace in
      List.iter
        (fun (name, f) ->
          f ();
          let b = allocated_bytes f in
          if b > budget then
            Alcotest.failf "%s on %d events allocated %.0f B (budget %.0f)" name
              (Store.num_events store) b budget)
        [
          ("log_likelihood", fun () -> ignore (Store.log_likelihood store params));
          ("service_sufficient_stats", fun () -> ignore (Store.service_sufficient_stats store));
          ("mean_service_by_queue", fun () -> ignore (Store.mean_service_by_queue store));
          ("mean_waiting_by_queue", fun () -> ignore (Store.mean_waiting_by_queue store));
        ])
    [ 263; 2632 ]

(* The ceiling [make bench] gates as MAX_STORE_BPE, at 10k events: the
   5% mask and the store build allocate 116 B per event, the store's
   arrays and a merge sort of the buckets that arrive out of order. An
   eager shuffle buffer cost 8 B more per latent event, and
   heap-sorting every bucket 150 B in all. *)
let test_setup_allocation () =
  let net = Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 () in
  let trace = Net_helpers.simulate_n (Rng.create ~seed:508 ()) net 2632 in
  let b =
    allocated_bytes (fun () ->
        let mask =
          Qnet_core.Observation.mask (Rng.create ~seed:509 ())
            (Qnet_core.Observation.Task_fraction 0.05) trace
        in
        ignore (Sys.opaque_identity (Store.of_trace ~observed:mask trace)))
  in
  let per_event = b /. float_of_int (Array.length trace.Trace.events) in
  if per_event > 129.0 then
    Alcotest.failf "mask + of_trace allocated %.1f B per event (budget 129)" per_event

(* [shuffled_latent] draws exactly as [Rng.shuffle_in_place] on a fresh
   copy of [latent]: the same permutation and the same generator state,
   for sizes from none to 10,000, on the buffer its first call
   allocates and again on the reused buffer. *)
let test_shuffled_latent_matches_rng () =
  let net = Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 8.0; 7.0 ] in
  let trace = Net_helpers.simulate_n (Rng.create ~seed:506 ()) net 3400 in
  let m = Array.length trace.Trace.events in
  List.iter
    (fun n ->
      let store = Store.of_trace ~observed:(Array.init m (fun i -> i >= n)) trace in
      let rng = Rng.create ~seed:(507 + n) () in
      let reference = Rng.copy rng in
      for round = 1 to 2 do
        let expected = Array.copy (Store.latent store) in
        Rng.shuffle_in_place reference expected;
        let name = Printf.sprintf "n = %d, round %d" n round in
        Alcotest.(check (array int)) name expected (Store.shuffled_latent store rng);
        if Rng.state rng <> Rng.state reference then
          Alcotest.failf "%s: generator states differ" name
      done)
    [ 0; 1; 2; 15; 16; 17; 33; 10_000 ]

let () =
  Alcotest.run "qnet_core_store"
    [
      ( "event-store",
        [
          Alcotest.test_case "pointer topology" `Quick test_pointer_topology;
          Alcotest.test_case "arrival/service/waiting" `Quick test_arrival_service_waiting;
          Alcotest.test_case "set_departure propagates" `Quick
            test_set_departure_propagates_to_arrival;
          Alcotest.test_case "observed immutable" `Quick test_set_departure_rejects_observed;
          Alcotest.test_case "task and queue listings" `Quick test_events_of_task_and_queue;
          Alcotest.test_case "unobserved listing" `Quick test_unobserved_listing;
          Alcotest.test_case "validate" `Quick test_validate_ok_and_violation;
          Alcotest.test_case "to_trace roundtrip" `Quick test_to_trace_roundtrip;
          Alcotest.test_case "copy isolation" `Quick test_copy_isolation;
          Alcotest.test_case "log likelihood" `Quick test_log_likelihood_matches_manual;
          Alcotest.test_case "sufficient stats" `Quick test_sufficient_stats;
          Alcotest.test_case "mean waiting/service" `Quick
            test_mean_waiting_and_service_by_queue;
          Alcotest.test_case "q0 revisit rejected" `Quick test_rejects_queue_revisit_of_q0;
          Alcotest.test_case "mask length" `Quick test_mask_length_checked;
          Alcotest.test_case "unsorted trace rejected" `Quick test_rejects_unsorted_trace;
          Alcotest.test_case "simulated store consistency" `Quick
            test_large_simulated_store_consistency;
          Alcotest.test_case "golden structure" `Quick test_golden_structure;
          Alcotest.test_case "reductions allocate per queue" `Quick test_reductions_allocation;
          Alcotest.test_case "set-up allocation" `Quick test_setup_allocation;
          Alcotest.test_case "shuffled latent ≡ Rng.shuffle_in_place" `Quick
            test_shuffled_latent_matches_rng;
        ] );
    ]
