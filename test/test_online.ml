(* Tests for online (windowed) StEM. *)

module Rng = Qnet_prob.Rng
module Trace = Qnet_trace.Trace
module Topologies = Qnet_des.Topologies
module Network = Qnet_des.Network
module Obs = Qnet_core.Observation
module Online_stem = Qnet_core.Online_stem
module Params = Qnet_core.Params

let check_close ?(eps = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let ramped_trace ~seed ~tasks =
  let net = Topologies.tandem ~arrival_rate:4.0 ~service_rates:[ 20.0 ] in
  let rng = Rng.create ~seed () in
  let workload =
    Qnet_des.Workload.Ramp { initial_rate = 1.0; final_rate = 8.0; duration = 150.0 }
  in
  Network.simulate_tasks rng net ~workload ~num_tasks:tasks

let test_online_tracks_ramp () =
  let trace = ramped_trace ~seed:802 ~tasks:600 in
  let rng = Rng.create ~seed:803 () in
  let mask = Obs.mask rng (Obs.Task_fraction 0.25) trace in
  let steps = Online_stem.run ~config:{ Online_stem.default_config with Online_stem.num_windows = 4 } rng trace ~mask in
  Alcotest.(check bool) "several windows" true (List.length steps >= 3);
  let rates = List.map (fun s -> Params.arrival_rate s.Online_stem.params) steps in
  (match (rates, List.rev rates) with
  | first :: _, last :: _ ->
      Alcotest.(check bool)
        (Printf.sprintf "rate rises: %.2f -> %.2f" first last)
        true
        (last > 1.5 *. first)
  | _ -> Alcotest.fail "empty trajectory");
  (* the service-rate estimate stays roughly constant *)
  List.iter
    (fun s ->
      let m = s.Online_stem.mean_service.(1) in
      Alcotest.(check bool)
        (Printf.sprintf "service estimate %.4f near 0.05" m)
        true
        (m > 0.02 && m < 0.1))
    steps

let test_online_whole_trace_single_window () =
  (* one window must agree with a plain StEM run on the same data *)
  let net = Topologies.tandem ~arrival_rate:5.0 ~service_rates:[ 9.0 ] in
  let rng = Rng.create ~seed:804 () in
  let trace = Network.simulate_poisson rng net ~num_tasks:300 in
  let mask = Obs.mask rng (Obs.Task_fraction 0.3) trace in
  let steps =
    Online_stem.run
      ~config:{ Online_stem.num_windows = 1; iterations = 120; min_tasks = 5 }
      (Rng.create ~seed:805 ())
      trace ~mask
  in
  match steps with
  | [ s ] ->
      Alcotest.(check int) "all tasks" 300 s.Online_stem.num_tasks;
      check_close ~eps:0.02 "service estimate" (1.0 /. 9.0) s.Online_stem.mean_service.(1)
  | _ -> Alcotest.failf "expected one step, got %d" (List.length steps)

let test_online_min_tasks_skips () =
  let trace = ramped_trace ~seed:806 ~tasks:80 in
  let rng = Rng.create ~seed:807 () in
  let mask = Obs.mask rng (Obs.Task_fraction 0.5) trace in
  let steps =
    Online_stem.run
      ~config:{ Online_stem.num_windows = 40; iterations = 30; min_tasks = 15 }
      rng trace ~mask
  in
  (* many of the 40 tiny windows are skipped *)
  Alcotest.(check bool)
    (Printf.sprintf "windows kept: %d" (List.length steps))
    true
    (List.length steps < 40)

let test_online_mask_length_checked () =
  let trace = ramped_trace ~seed:808 ~tasks:50 in
  let rng = Rng.create () in
  match Online_stem.run rng trace ~mask:[| true |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "mask length checked"

(* --- windowing hardening: adversarial ingestion ------------------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let collect_warnings () =
  let warnings = ref [] in
  ((fun w -> warnings := w :: !warnings), warnings)

(* Corrupt one task's entry timestamp in place (bypassing
   Trace.create's validation, the way a broken ingestion path would). *)
let poison_entry trace task value =
  let events = Array.copy trace.Trace.events in
  Array.iteri
    (fun i e ->
      if e.Trace.task = task && e.Trace.arrival = 0.0 then
        events.(i) <- { e with Trace.departure = value })
    events;
  { trace with Trace.events }

let test_online_nonfinite_entry_dropped () =
  let trace = ramped_trace ~seed:809 ~tasks:300 in
  let rng = Rng.create ~seed:810 () in
  let mask = Obs.mask rng (Obs.Task_fraction 0.25) trace in
  let victim = trace.Trace.events.(0).Trace.task in
  let bad = poison_entry trace victim infinity in
  let on_warning, warnings = collect_warnings () in
  let steps =
    Online_stem.run
      ~config:{ Online_stem.default_config with Online_stem.num_windows = 3 }
      ~on_warning rng bad ~mask
  in
  Alcotest.(check bool) "windows still fitted" true (List.length steps >= 2);
  Alcotest.(check bool) "drop warned" true
    (List.exists (fun w -> contains w "non-finite") !warnings)

let test_online_missing_entry_dropped () =
  let trace = ramped_trace ~seed:811 ~tasks:200 in
  let rng = Rng.create ~seed:812 () in
  let mask = Obs.mask rng (Obs.Task_fraction 0.25) trace in
  (* shift one task's entry event off arrival time 0, so entry_times
     never sees it: the task has no usable entry at all *)
  let victim = trace.Trace.events.(0).Trace.task in
  let events = Array.copy trace.Trace.events in
  Array.iteri
    (fun i e ->
      if e.Trace.task = victim && e.Trace.arrival = 0.0 then
        events.(i) <- { e with Trace.arrival = 0.5 })
    events;
  let bad = { trace with Trace.events } in
  let on_warning, warnings = collect_warnings () in
  let steps =
    Online_stem.run
      ~config:{ Online_stem.default_config with Online_stem.num_windows = 3 }
      ~on_warning rng bad ~mask
  in
  Alcotest.(check bool) "windows still fitted" true (List.length steps >= 2);
  Alcotest.(check bool) "missing entry warned" true
    (List.exists (fun w -> contains w "no usable entry") !warnings)

let test_online_out_of_order_entries_warn () =
  (* task ids numbered against time order: windowing must assign by
     timestamp value (as if sorted) and flag the reordering *)
  let ev task queue arrival departure =
    { Trace.task; state = 0; queue; arrival; departure }
  in
  let trace =
    Trace.create ~num_queues:1
      [ ev 0 0 0.0 9.0; ev 1 0 0.0 5.0; ev 2 0 0.0 1.0 ]
  in
  let mask = Array.map (fun _ -> true) trace.Trace.events in
  let on_warning, warnings = collect_warnings () in
  let steps =
    Online_stem.run
      ~config:{ Online_stem.num_windows = 2; iterations = 4; min_tasks = 1000 }
      ~on_warning (Rng.create ()) trace ~mask
  in
  Alcotest.(check int) "all windows below min_tasks" 0 (List.length steps);
  Alcotest.(check bool) "reordering warned" true
    (List.exists (fun w -> contains w "out of task order") !warnings)

let test_online_degenerate_span_survives () =
  (* every task enters at the same instant: unit-width fallback instead
     of an inverted window or a hard failure *)
  let ev task queue arrival departure =
    { Trace.task; state = 0; queue; arrival; departure }
  in
  let trace =
    Trace.create ~num_queues:1
      [ ev 0 0 0.0 2.0; ev 1 0 0.0 2.0; ev 2 0 0.0 2.0 ]
  in
  let mask = Array.map (fun _ -> true) trace.Trace.events in
  let on_warning, warnings = collect_warnings () in
  let steps =
    Online_stem.run
      ~config:{ Online_stem.num_windows = 4; iterations = 4; min_tasks = 1000 }
      ~on_warning (Rng.create ()) trace ~mask
  in
  Alcotest.(check int) "no window reaches min_tasks" 0 (List.length steps);
  Alcotest.(check bool) "degeneracy warned" true
    (List.exists (fun w -> contains w "degenerate") !warnings)

let test_online_all_entries_corrupt_rejected () =
  let ev task queue arrival departure =
    { Trace.task; state = 0; queue; arrival; departure }
  in
  let trace =
    Trace.create ~num_queues:1 [ ev 0 0 0.0 1.0; ev 1 0 0.0 2.0 ]
  in
  let bad = poison_entry (poison_entry trace 0 infinity) 1 infinity in
  let mask = Array.map (fun _ -> true) bad.Trace.events in
  match Online_stem.run (Rng.create ()) bad ~mask with
  | exception Invalid_argument msg ->
      Alcotest.(check bool) "clear error" true (contains msg "finite entry")
  | _ -> Alcotest.fail "expected Invalid_argument when no entry is usable"

let () =
  Alcotest.run "qnet_online"
    [
      ( "online-stem",
        [
          Alcotest.test_case "tracks ramp" `Slow test_online_tracks_ramp;
          Alcotest.test_case "single window = plain StEM" `Slow
            test_online_whole_trace_single_window;
          Alcotest.test_case "min_tasks skips" `Quick test_online_min_tasks_skips;
          Alcotest.test_case "mask length" `Quick test_online_mask_length_checked;
          Alcotest.test_case "non-finite entry dropped" `Quick
            test_online_nonfinite_entry_dropped;
          Alcotest.test_case "missing entry dropped" `Quick
            test_online_missing_entry_dropped;
          Alcotest.test_case "out-of-order entries warn" `Quick
            test_online_out_of_order_entries_warn;
          Alcotest.test_case "degenerate span survives" `Quick
            test_online_degenerate_span_survives;
          Alcotest.test_case "all entries corrupt rejected" `Quick
            test_online_all_entries_corrupt_rejected;
        ] );
    ]
