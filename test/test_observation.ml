(* Tests for observation masking. *)

module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Trace = Qnet_trace.Trace
module Topologies = Qnet_des.Topologies
module Rng = Qnet_prob.Rng

let make_trace ?(tasks = 100) () =
  let rng = Rng.create ~seed:5 () in
  let net = Topologies.tandem ~arrival_rate:5.0 ~service_rates:[ 8.0; 9.0 ] in
  Net_helpers.simulate_n rng net tasks

let test_all_scheme () =
  let trace = make_trace () in
  let rng = Rng.create () in
  let mask = Obs.mask rng Obs.All trace in
  Alcotest.(check bool) "everything observed" true (Array.for_all Fun.id mask);
  Alcotest.(check int) "all tasks observed" 100
    (List.length (Obs.observed_tasks trace mask))

let test_task_fraction_counts () =
  let trace = make_trace () in
  let rng = Rng.create ~seed:9 () in
  let mask = Obs.mask rng (Obs.Task_fraction 0.2) trace in
  let observed = Obs.observed_tasks trace mask in
  Alcotest.(check int) "20 of 100 tasks" 20 (List.length observed)

let test_task_fraction_full_tasks () =
  (* a selected task has ALL departures observed (including the final
     one: the arrival into the FSM's final state) *)
  let trace = make_trace () in
  let rng = Rng.create ~seed:10 () in
  let mask = Obs.mask rng (Obs.Task_fraction 0.3) trace in
  let store = Store.of_trace ~observed:mask trace in
  let observed = Obs.observed_tasks trace mask in
  List.iter
    (fun task ->
      Array.iter
        (fun i ->
          if not (Store.observed store i) then
            Alcotest.failf "task %d event %d should be observed" task i)
        (Store.events_of_task store task))
    observed

let test_task_fraction_at_least_one () =
  let trace = make_trace ~tasks:10 () in
  let rng = Rng.create ~seed:11 () in
  let mask = Obs.mask rng (Obs.Task_fraction 0.0001) trace in
  Alcotest.(check int) "at least one task anchors" 1
    (List.length (Obs.observed_tasks trace mask))

let test_explicit_tasks () =
  let trace = make_trace ~tasks:10 () in
  let rng = Rng.create () in
  let mask = Obs.mask rng (Obs.Explicit_tasks [ 2; 7 ]) trace in
  Alcotest.(check (list int)) "exact tasks" [ 2; 7 ] (Obs.observed_tasks trace mask)

let test_explicit_unknown_task_rejected () =
  let trace = make_trace ~tasks:5 () in
  let rng = Rng.create () in
  match Obs.mask rng (Obs.Explicit_tasks [ 99 ]) trace with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected unknown task rejection"

let test_event_fraction_rate () =
  let trace = make_trace ~tasks:500 () in
  let rng = Rng.create ~seed:12 () in
  let mask = Obs.mask rng (Obs.Event_fraction 0.3) trace in
  let frac = Obs.fraction_events_observed mask in
  Alcotest.(check bool)
    (Printf.sprintf "fraction near 0.3 (got %.3f)" frac)
    true
    (Float.abs (frac -. 0.3) < 0.04)

let test_event_fraction_extremes () =
  let trace = make_trace ~tasks:50 () in
  let rng = Rng.create ~seed:13 () in
  let none = Obs.mask rng (Obs.Event_fraction 0.0) trace in
  Alcotest.(check bool) "nothing observed" true (Array.for_all not none);
  let all = Obs.mask rng (Obs.Event_fraction 1.0) trace in
  Alcotest.(check bool) "everything observed" true (Array.for_all Fun.id all)

let test_validate_fractions () =
  (match Obs.validate (Obs.Task_fraction 1.5) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected fraction validation error");
  (match Obs.validate (Obs.Event_fraction (-0.1)) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected fraction validation error");
  match Obs.validate (Obs.Task_fraction 0.5) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

let test_fraction_events_observed () =
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Obs.fraction_events_observed [||]);
  Alcotest.(check (float 1e-9)) "half" 0.5
    (Obs.fraction_events_observed [| true; false |])

let test_mask_determinism () =
  let trace = make_trace () in
  let m1 = Obs.mask (Rng.create ~seed:21 ()) (Obs.Task_fraction 0.4) trace in
  let m2 = Obs.mask (Rng.create ~seed:21 ()) (Obs.Task_fraction 0.4) trace in
  Alcotest.(check bool) "same seed same mask" true (m1 = m2);
  let m3 = Obs.mask (Rng.create ~seed:22 ()) (Obs.Task_fraction 0.4) trace in
  Alcotest.(check bool) "different seed differs" true (m1 <> m3)

(* [Trace.t] is a public record: a mask drawn over events that are not
   in (task, arrival) order would not line up with the store's
   canonical order, so every scheme must refuse them. *)
let test_unsorted_trace_rejected () =
  let trace = make_trace ~tasks:5 () in
  let e = trace.Trace.events in
  let swapped = Array.copy e in
  swapped.(1) <- e.(Array.length e - 1);
  swapped.(Array.length e - 1) <- e.(1);
  let unsorted = { trace with Trace.events = swapped } in
  List.iter
    (fun scheme ->
      Alcotest.check_raises "unsorted events"
        (Invalid_argument "Observation.mask: event 2 is out of (task, arrival) order")
        (fun () -> ignore (Obs.mask (Rng.create ~seed:3 ()) scheme unsorted)))
    [ Obs.All; Obs.Task_fraction 0.5; Obs.Event_fraction 0.5; Obs.Explicit_tasks [ 0 ] ]

(* Golden masks: the mask's bits, the generator state after drawing it
   and the observed task ids, pinned per scheme on a feedback trace
   (tasks of varying length) whose task ids are renumbered to
   descending, negative and non-contiguous values, so the grouping by
   task id is exercised beyond 0..n-1. *)
let golden_trace =
  lazy
    (let net = Topologies.feedback ~arrival_rate:3.0 ~service_rate:6.0 ~loop_prob:0.4 in
     let trace = Net_helpers.simulate_n (Rng.create ~seed:401 ()) net 150 in
     Trace.create ~num_queues:trace.Trace.num_queues
       (Array.to_list
          (Array.map
             (fun e -> { e with Trace.task = 100 - (3 * e.Trace.task) })
             trace.Trace.events)))

let mask_digest rng trace mask =
  let b = Buffer.create (Array.length mask + 64) in
  Array.iter (fun o -> Buffer.add_char b (if o then '1' else '0')) mask;
  Array.iter (Buffer.add_int64_le b) (Rng.state rng);
  List.iter (fun k -> Buffer.add_string b (Printf.sprintf ",%d" k)) (Obs.observed_tasks trace mask);
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_golden_masks () =
  let trace = Lazy.force golden_trace in
  List.iter
    (fun (name, scheme, expected) ->
      let rng = Rng.create ~seed:402 () in
      let mask = Obs.mask rng scheme trace in
      Alcotest.(check string) name expected (mask_digest rng trace mask))
    [
      ("task fraction", Obs.Task_fraction 0.3, "64426137604a0644fa5a57ff40fe9446");
      ("event fraction", Obs.Event_fraction 0.4, "142eaf218f0fa7615682e30ff1fe8692");
      ("explicit tasks", Obs.Explicit_tasks [ -44; 100; 7; -347 ], "66c73a6996987c6488912dfca1908496");
    ]

let () =
  Alcotest.run "qnet_observation"
    [
      ( "observation",
        [
          Alcotest.test_case "All" `Quick test_all_scheme;
          Alcotest.test_case "task fraction counts" `Quick test_task_fraction_counts;
          Alcotest.test_case "task fully observed" `Quick test_task_fraction_full_tasks;
          Alcotest.test_case "at least one task" `Quick test_task_fraction_at_least_one;
          Alcotest.test_case "explicit tasks" `Quick test_explicit_tasks;
          Alcotest.test_case "unknown explicit task" `Quick
            test_explicit_unknown_task_rejected;
          Alcotest.test_case "event fraction rate" `Quick test_event_fraction_rate;
          Alcotest.test_case "event fraction extremes" `Quick test_event_fraction_extremes;
          Alcotest.test_case "validate" `Quick test_validate_fractions;
          Alcotest.test_case "fraction helper" `Quick test_fraction_events_observed;
          Alcotest.test_case "determinism" `Quick test_mask_determinism;
          Alcotest.test_case "golden masks" `Quick test_golden_masks;
          Alcotest.test_case "unsorted trace rejected" `Quick test_unsorted_trace_rejected;
        ] );
    ]
