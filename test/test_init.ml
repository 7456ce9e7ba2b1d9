(* Tests for feasible initialization: the exact passes over the
   dependency DAG, the greedy targeted walk, and their errors. *)

module Init = Qnet_core.Init
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Obs = Qnet_core.Observation
module Topologies = Qnet_des.Topologies
module Rng = Qnet_prob.Rng

let check_close ?(eps = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let masked ~seed ~tasks ~frac ?(net = Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 8.0; 7.0 ]) () =
  let rng = Rng.create ~seed () in
  Net_helpers.masked_store ~scheme:(Obs.Task_fraction frac) rng net tasks

let scramble store =
  (* wipe latent departures so initialization has real work to do *)
  Array.iter
    (fun i -> Store.set_departure store i 1e9)
    (Store.unobserved_events store)

let test_feasible_strategies_validate () =
  List.iter
    (fun strategy ->
      let _, _, store = masked ~seed:201 ~tasks:80 ~frac:0.2 () in
      scramble store;
      let target = Params.create ~rates:[| 6.0; 8.0; 7.0 |] ~arrival_queue:0 in
      match Init.feasible ~strategy ~target store with
      | Ok () -> (
          match Store.validate store with
          | Ok () -> ()
          | Error m -> Alcotest.failf "invalid state after init: %s" m)
      | Error m -> Alcotest.failf "init failed: %s" m)
    [ Init.Earliest; Init.Latest; Init.Centered; Init.Targeted ]

let test_feasible_preserves_observed () =
  let trace, _, store = masked ~seed:202 ~tasks:50 ~frac:0.3 () in
  let original = Array.map (fun e -> e.Qnet_trace.Trace.departure) trace.Qnet_trace.Trace.events in
  scramble store;
  (match Init.feasible ~strategy:Init.Centered store with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  Array.iteri
    (fun i d ->
      if Store.observed store i then
        check_close "observed departure untouched" original.(i) d)
    (Array.init (Store.num_events store) (Store.departure store))

let test_earliest_below_latest () =
  let _, _, s1 = masked ~seed:203 ~tasks:60 ~frac:0.2 () in
  let _, _, s2 = masked ~seed:203 ~tasks:60 ~frac:0.2 () in
  scramble s1;
  scramble s2;
  (match Init.feasible ~strategy:Init.Earliest s1 with Ok () -> () | Error m -> Alcotest.fail m);
  (match Init.feasible ~strategy:Init.Latest s2 with Ok () -> () | Error m -> Alcotest.fail m);
  for i = 0 to Store.num_events s1 - 1 do
    if Store.departure s1 i > Store.departure s2 i +. 1e-9 then
      Alcotest.failf "event %d: earliest %.9g > latest %.9g" i (Store.departure s1 i)
        (Store.departure s2 i)
  done

let test_targeted_requires_target () =
  let _, _, store = masked ~seed:204 ~tasks:10 ~frac:0.5 () in
  Alcotest.check_raises "missing target"
    (Invalid_argument "Init.feasible: Targeted strategy requires ~target") (fun () ->
      ignore (Init.feasible ~strategy:Init.Targeted store))

let test_targeted_hits_target_services () =
  (* where slack exists, the greedy walk should give services close to
     the target mean *)
  let _, _, store = masked ~seed:205 ~tasks:100 ~frac:0.1 () in
  scramble store;
  let target = Params.create ~rates:[| 6.0; 8.0; 7.0 |] ~arrival_queue:0 in
  (match Init.feasible ~strategy:Init.Targeted ~target store with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let stats = Store.service_sufficient_stats store in
  for q = 0 to 2 do
    let count, total = stats.(q) in
    let mean = total /. float_of_int count in
    (* within a factor 3 of the target despite clamping *)
    let tgt = Params.mean_service target q in
    if mean > 3.0 *. tgt || mean < tgt /. 3.0 then
      Alcotest.failf "queue %d targeted mean %.4g too far from %.4g" q mean tgt
  done

let test_targeted_does_not_strand_tail () =
  (* the trailing unobserved block must start near the last anchor, not
     at the midpoint of the default cap (the Centered pathology) *)
  let trace, _, store = masked ~seed:206 ~tasks:500 ~frac:0.05 () in
  let true_last =
    Array.fold_left
      (fun acc e -> Float.max acc e.Qnet_trace.Trace.departure)
      0.0 trace.Qnet_trace.Trace.events
  in
  scramble store;
  let target = Params.create ~rates:[| 6.0; 8.0; 7.0 |] ~arrival_queue:0 in
  (match Init.feasible ~strategy:Init.Targeted ~target store with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let init_last =
    Array.fold_left Float.max 0.0
      (Array.init (Store.num_events store) (Store.departure store))
  in
  Alcotest.(check bool)
    (Printf.sprintf "tail near data: init last %.1f vs true %.1f" init_last true_last)
    true
    (init_last < 1.3 *. true_last)

let test_constraint_count_positive () =
  let _, _, store = masked ~seed:207 ~tasks:20 ~frac:0.2 () in
  let n = Init.constraint_count store in
  Alcotest.(check bool) (Printf.sprintf "constraints %d" n) true (n > 50)

let test_feedback_topology_init () =
  let rng = Rng.create ~seed:210 () in
  let net = Topologies.feedback ~arrival_rate:2.0 ~service_rate:5.0 ~loop_prob:0.5 in
  let _, _, store = Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.1) rng net 100 in
  scramble store;
  let target = Params.create ~rates:[| 2.0; 5.0 |] ~arrival_queue:0 in
  (match Init.feasible ~strategy:Init.Targeted ~target store with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  match Store.validate store with
  | Ok () -> ()
  | Error m -> Alcotest.failf "feedback init invalid: %s" m

let test_init_with_nothing_observed () =
  (* pathological but legal: no observations at all *)
  let rng = Rng.create ~seed:211 () in
  let net = Topologies.tandem ~arrival_rate:4.0 ~service_rates:[ 5.0 ] in
  let trace = Net_helpers.simulate_n rng net 20 in
  let mask = Array.make (Array.length trace.Qnet_trace.Trace.events) false in
  let store = Store.of_trace ~observed:mask trace in
  scramble store;
  (match Init.feasible ~strategy:Init.Centered store with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  match Store.validate store with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Errors: observations no assignment can satisfy. Init.feasible must
   return [Error] under every strategy and leave every departure's bits
   as they were. *)

let all_strategies =
  [
    ("earliest", Init.Earliest);
    ("latest", Init.Latest);
    ("centered", Init.Centered);
    ("targeted", Init.Targeted);
  ]

let departures_digest store =
  let b = Buffer.create (8 * Store.num_events store) in
  for i = 0 to Store.num_events store - 1 do
    Buffer.add_int64_le b (Int64.bits_of_float (Store.departure store i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let uniform_target store =
  Params.create ~rates:(Array.make (Store.num_queues store) 5.0) ~arrival_queue:0

(* Every strategy must refuse [store] with [message] and leave it as it
   was. *)
let check_refused name store message =
  let target = uniform_target store in
  List.iter
    (fun (strategy_name, strategy) ->
      let before = departures_digest store in
      (match Init.feasible ~strategy ~target store with
      | Ok () -> Alcotest.failf "%s %s: accepted" name strategy_name
      | Error m -> Alcotest.(check string) (name ^ " " ^ strategy_name) message m);
      if departures_digest store <> before then
        Alcotest.failf "%s %s: the store changed" name strategy_name)
    all_strategies

(* One task through queues 0 -> 1 -> 2 whose observed departures at 0
   and 2 lie 1e-10 apart: the latent departure between them has no
   room, since each dependency needs a 1e-9 separation. *)
let test_no_room () =
  let d0 = 1.0 in
  let d2 = d0 +. 1e-10 in
  let d1 = d0 +. 5e-11 in
  let trace =
    Qnet_trace.Trace.create ~num_queues:3
      [
        { Qnet_trace.Trace.task = 0; state = 0; queue = 0; arrival = 0.0; departure = d0 };
        { task = 0; state = 1; queue = 1; arrival = d0; departure = d1 };
        { task = 0; state = 2; queue = 2; arrival = d1; departure = d2 };
      ]
  in
  let store = Store.of_trace ~observed:[| true; false; true |] trace in
  check_refused "no room" store
    "no feasible start: event 1 at queue 1 must depart at or after 1.0000000010000001 and by \
     0.99999999910000004"

let of_csv ~num_queues csv =
  match Qnet_trace.Trace.of_csv ~num_queues csv with
  | Ok trace -> trace
  | Error m -> Alcotest.fail m

(* Two tasks through queues 0 -> 1 -> 2. At queue 1 task 1 arrives
   after task 0 but departs before it, so queue 2 sees them in the
   other order: the dependencies have a cycle, and no mask (all 64 are
   tried) can satisfy them. *)
let test_fifo_cycle () =
  let trace =
    of_csv ~num_queues:3
      "task,state,queue,arrival,departure\n\
       0,0,0,0,1\n0,1,1,1,4\n0,2,2,4,5\n1,0,0,0,2\n1,1,1,2,3\n1,2,2,3,6\n"
  in
  for bits = 0 to 63 do
    let observed = Array.init 6 (fun i -> bits land (1 lsl i) <> 0) in
    check_refused
      (Printf.sprintf "fifo cycle, mask %d" bits)
      (Store.of_trace ~observed trace)
      "event 1 at queue 1 is on a dependency cycle: the trace breaks FIFO order"
  done

(* One service queue where task 1 arrives after task 0 but departs
   before it. Both departures there are observed, so the passes skip
   their constraint; the latent entries get a start, and
   Event_store.validate then refuses the state, which must be undone. *)
let test_observed_fifo_break () =
  let trace =
    of_csv ~num_queues:2
      "task,state,queue,arrival,departure\n0,0,0,0,1\n0,1,1,1,5\n1,0,0,0,2\n1,1,1,2,3\n"
  in
  let store = Store.of_trace ~observed:[| false; true; false; true |] trace in
  check_refused "observed FIFO break" store
    "initialization produced invalid state: event 3: negative service -2"

(* ------------------------------------------------------------------ *)
(* Difference constraints, case by case: small stores whose every
   expected value is worked out by hand from the passes' recurrences.
   A latent departure lies at least [eps] after each predecessor (its
   task's previous departure, its queue predecessor's departure, and
   the departure that brought the task queued before it to its next
   queue) and after time 0, and at least [eps] before each successor
   and at most the cap, 1.5 × the last observed departure + 10. *)

let eps = 1e-9

let check_bits name expected got =
  if not (Int64.equal (Int64.bits_of_float expected) (Int64.bits_of_float got)) then
    Alcotest.failf "%s: expected %.17g, got %.17g" name expected got

let store_of_rows ~num_queues ?observed rows =
  Store.of_trace ?observed (of_csv ~num_queues ("task,state,queue,arrival,departure\n" ^ rows))

(* The departures [Init.feasible ~strategy] gives a copy of [store]. It
   fails the test unless the start passes [Event_store.validate]. *)
let solve strategy store =
  let store = Store.copy store in
  match Init.feasible ~strategy ~target:(uniform_target store) store with
  | Ok () -> Array.init (Store.num_events store) (Store.departure store)
  | Error m -> Alcotest.fail m

(* Every departure observed: the only constraints are the bounds that
   fix them, and every strategy leaves each bit as it was. *)
let test_dc_empty_system () =
  let store = store_of_rows ~num_queues:2 "0,0,0,0,1\n0,1,1,1,2\n1,0,0,0,1.5\n1,1,1,1.5,3\n" in
  Alcotest.(check int) "two bounds per event" 8 (Init.constraint_count store);
  List.iter
    (fun (name, strategy) ->
      Array.iteri
        (fun i x -> check_bits (Printf.sprintf "%s, event %d" name i) (Store.departure store i) x)
        (solve strategy store))
    all_strategies

(* One task through queues 0 -> 1 -> 2 -> 3 with only its entry, at
   0.5, observed: Earliest steps [eps] forward from it, Latest [eps]
   back from the cap, 1.5 × 0.5 + 10. *)
let test_dc_chain () =
  let store =
    store_of_rows ~num_queues:4 ~observed:[| true; false; false; false |]
      "0,0,0,0,0.5\n0,1,1,0.5,1\n0,2,2,1,1.5\n0,3,3,1.5,2\n"
  in
  let e = solve Init.Earliest store and l = solve Init.Latest store in
  check_bits "earliest 1" (0.5 +. eps) e.(1);
  check_bits "earliest 2" (0.5 +. eps +. eps) e.(2);
  check_bits "earliest 3" (0.5 +. eps +. eps +. eps) e.(3);
  check_bits "latest 3" 10.75 l.(3);
  check_bits "latest 2" (10.75 -. eps) l.(2);
  check_bits "latest 1" (10.75 -. eps -. eps) l.(1)

(* The cap comes from observed departures only: the latent departure
   after an observed 4 ends at 1.5 × 4 + 10 under Latest, whatever the
   trace (50) or the store (1e9) holds for it. *)
let test_dc_latest_vs_earliest () =
  let store = store_of_rows ~num_queues:2 ~observed:[| true; false |] "0,0,0,0,4\n0,1,1,4,50\n" in
  Store.set_departure store 1 1e9;
  let e = solve Init.Earliest store and l = solve Init.Latest store in
  check_bits "earliest" (4.0 +. eps) e.(1);
  check_bits "latest hits the cap" 16.0 l.(1);
  Alcotest.(check bool) "earliest <= latest" true (e.(1) <= l.(1))

(* Entry and exit observed, at 1 and 2, with two latent departures
   between: Centered is the midpoint of Earliest and Latest, event by
   event, and keeps every gap of at least [eps]. *)
let test_dc_centered_feasible () =
  let store =
    store_of_rows ~num_queues:4 ~observed:[| true; false; false; true |]
      "0,0,0,0,1\n0,1,1,1,1.2\n0,2,2,1.2,1.5\n0,3,3,1.5,2\n"
  in
  let e = solve Init.Earliest store and l = solve Init.Latest store in
  let c = solve Init.Centered store in
  check_bits "earliest 2" (1.0 +. eps +. eps) e.(2);
  check_bits "latest 1" (2.0 -. eps -. eps) l.(1);
  for i = 1 to 2 do
    check_bits (Printf.sprintf "centered %d" i) (0.5 *. (e.(i) +. l.(i))) c.(i)
  done;
  for i = 1 to 3 do
    if c.(i) -. c.(i - 1) < eps then
      Alcotest.failf "centered gap %d: %.17g after %.17g" i c.(i) c.(i - 1)
  done

(* Tasks 1 and 2 break FIFO order at queue 1 and meet again at queue 2
   in the other order, so events 4 and 7 (their departures from queue
   1) each must follow the other. Task 0 enters last and queues behind
   the cycle, so Kahn's order leaves its events over too, event 1 the
   lowest-numbered of them; the error must name an event on the cycle
   instead. *)
let test_dc_negative_cycle () =
  let rows =
    "0,0,0,0,7\n0,1,1,7,8\n0,2,2,8,9\n\
     1,0,0,0,1\n1,1,1,1,4\n1,2,2,4,5\n\
     2,0,0,0,2\n2,1,1,2,3\n2,2,2,3,6\n"
  in
  List.iter
    (fun (name, observed) ->
      check_refused name
        (store_of_rows ~num_queues:3 ~observed:(Array.make 9 observed) rows)
        "event 4 at queue 1 is on a dependency cycle: the trace breaks FIFO order")
    [ ("cycle, all latent", false); ("cycle, all observed", true) ]

(* Task 1 queues behind task 0 at queue 1 but leaves the network after
   its next departure, observed at 4, while task 0's departure from
   queue 1 is observed at 5. The latent departure of task 1 from queue
   1 (event 3) must follow 5 and precede 4. *)
let test_dc_contradictory_bounds () =
  let store =
    store_of_rows ~num_queues:3 ~observed:[| false; true; false; false; true |]
      "0,0,0,0,1\n0,1,1,1,5\n1,0,0,0,2\n1,1,1,2,3\n1,2,2,3,4\n"
  in
  check_refused "crossed bounds" store
    (Printf.sprintf
       "no feasible start: event 3 at queue 1 must depart at or after %.17g and by %.17g"
       (5.0 +. eps) (4.0 -. eps))

(* Tasks 0 and 1 reach queue 3 from queues 1 and 2, task 0 first. Task
   1's latent departure from queue 2 (event 4) is its arrival at queue
   3, so it must follow task 0's observed departure from queue 1 (3),
   a later bound than its own arrival at queue 2 (2); its next
   departure (6) bounds it above. *)
let test_dc_bound_interaction () =
  let store =
    store_of_rows ~num_queues:4 ~observed:[| true; true; true; true; false; true |]
      "0,0,0,0,1\n0,1,1,1,3\n0,2,3,3,5\n1,0,0,0,2\n1,1,2,2,4\n1,2,3,4,6\n"
  in
  check_bits "earliest: the arrival order binds" (3.0 +. eps) (solve Init.Earliest store).(4);
  check_bits "latest: the task's next departure binds" (6.0 -. eps) (solve Init.Latest store).(4)

(* Exact min and max do not depend on the order the passes visit
   edges in. Here two bounds on each latent departure differ by 5e-13,
   below the 1e-12 tolerance under which the solver the passes
   replaced kept whichever bound it visited first; the tighter one
   must win. Task 0's departure from queue 1 (event 1) must precede
   both its own next departure (5) and task 1's arrival at queue 3
   (event 4, 5 - 5e-13); task 1's departure from queue 3 (event 5) must
   follow both its arrival there and task 0's departure (event 2). *)
let test_dc_visiting_order () =
  let store =
    store_of_rows ~num_queues:4 ~observed:[| true; false; true; true; true; false |]
      "0,0,0,0,1\n0,1,1,1,3\n0,2,3,3,5\n\
       1,0,0,0,2\n1,1,2,2,4.9999999999995\n1,2,3,4.9999999999995,6\n"
  in
  let near = Store.departure store 4 in
  Alcotest.(check bool) "a near-tie" true (near < 5.0 && 5.0 -. near < 1e-12);
  check_bits "latest: the arrival order binds" (near -. eps) (solve Init.Latest store).(1);
  check_bits "earliest: the queue predecessor binds" (5.0 +. eps) (solve Init.Earliest store).(5)

(* A 20,000-event chain: 10,000 tasks through one service queue with
   only the first entry observed, at 0.001. Each latent departure lies
   [eps] after the one before it along the queue, so the last lies
   10,000 [eps] after the first. *)
let test_dc_long_chain () =
  let n = 10_000 in
  let events =
    List.concat
      (List.init n (fun k ->
           let entry = 0.001 *. float_of_int (k + 1) in
           [
             { Qnet_trace.Trace.task = k; state = 0; queue = 0; arrival = 0.0; departure = entry };
             { task = k; state = 1; queue = 1; arrival = entry; departure = entry +. 0.0005 };
           ]))
  in
  let store =
    Store.of_trace
      ~observed:(Array.init (2 * n) (fun i -> i = 0))
      (Qnet_trace.Trace.create ~num_queues:2 events)
  in
  let started = Sys.time () in
  let e = solve Init.Earliest store and l = solve Init.Latest store in
  let elapsed = Sys.time () -. started in
  check_close ~eps:1e-12 "earliest chain end" (0.001 +. (float_of_int n *. eps)) e.((2 * n) - 1);
  check_bits "latest chain end at the cap" ((1.5 *. 0.001) +. 10.0) l.((2 * n) - 1);
  if elapsed > 5.0 then Alcotest.failf "chain solve too slow: %.1fs" elapsed

(* ------------------------------------------------------------------ *)
(* An exact oracle for the passes: a naive fixed-point relaxation. It
   lists every dependency edge from the store's accessors, and
   tightens each one with exact comparisons, in index order, until a
   whole round changes nothing. On a DAG that is the unique solution of
   the passes' recurrences, so Earliest and Latest must equal it bit for
   bit. *)

let dependency_edges store =
  let edges = ref [] in
  for i = 0 to Store.num_events store - 1 do
    let p = Store.pi store i and r = Store.rho store i and j = Store.rho_inv store i in
    if p >= 0 then edges := (p, i) :: !edges;
    if r >= 0 then edges := (r, i) :: !edges;
    if j >= 0 && p >= 0 && Store.pi store j >= 0 then edges := (p, Store.pi store j) :: !edges
  done;
  List.rev !edges

let relax store =
  let slack = 1e-9 in
  let m = Store.num_events store in
  let observed = Store.observed store in
  let d = Store.departure store in
  let cap =
    1.5 *. Array.fold_left Float.max 0.0 (Array.init m (fun i -> if observed i then d i else 0.0))
    +. 10.0
  in
  let earliest =
    Array.init m (fun i ->
        if observed i then d i else if Store.pi store i < 0 then slack else neg_infinity)
  in
  let latest = Array.init m (fun i -> if observed i then d i else cap) in
  let edges = dependency_edges store in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (u, w) ->
        if (not (observed w)) && earliest.(u) +. slack > earliest.(w) then begin
          earliest.(w) <- earliest.(u) +. slack;
          changed := true
        end;
        if (not (observed u)) && latest.(w) -. slack < latest.(u) then begin
          latest.(u) <- latest.(w) -. slack;
          changed := true
        end)
      edges
  done;
  (earliest, latest)

let oracle_networks =
  [|
    ("tandem", Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 8.0; 7.0 ]);
    ( "three-tier",
      Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 () );
    ("feedback", Topologies.feedback ~arrival_rate:3.0 ~service_rate:6.0 ~loop_prob:0.4);
  |]

let oracle_fractions = [| 0.0; 0.05; 0.3; 1.0 |]

let qcheck_passes_match_relaxation =
  QCheck.Test.make ~name:"passes equal a fixed-point relaxation" ~count:200
    QCheck.(
      quad (int_bound 2) (int_range 5 60) (int_bound 3) (int_bound 1_000_000))
    (fun (n, tasks, f, seed) ->
      let name, net = oracle_networks.(n) in
      let trace = Net_helpers.simulate_n (Rng.create ~seed ()) net tasks in
      let mask =
        Obs.mask (Rng.create ~seed:(seed + 1) ()) (Obs.Task_fraction oracle_fractions.(f)) trace
      in
      let store0 = Store.of_trace ~observed:mask trace in
      let target = Params.of_network net in
      let earliest, latest = relax store0 in
      let run strategy =
        let store = Store.copy store0 in
        match Init.feasible ~strategy ~target store with
        | Ok () -> store
        | Error m -> QCheck.Test.fail_reportf "%s, %d tasks: %s" name tasks m
      in
      let e = run Init.Earliest and l = run Init.Latest in
      let c = run Init.Centered and t = run Init.Targeted in
      let bits x = Int64.bits_of_float x in
      for i = 0 to Store.num_events store0 - 1 do
        if not (Store.observed store0 i) then begin
          let fail what =
            QCheck.Test.fail_reportf "%s, %d tasks, event %d: %s (earliest %.17g, latest %.17g)"
              name tasks i what earliest.(i) latest.(i)
          in
          if bits (Store.departure e i) <> bits earliest.(i) then fail "Earliest";
          if bits (Store.departure l i) <> bits latest.(i) then fail "Latest";
          if bits (Store.departure c i) <> bits (0.5 *. (earliest.(i) +. latest.(i))) then
            fail "Centered is not the midpoint";
          let x = Store.departure t i in
          if x < earliest.(i) || x > latest.(i) then fail (Printf.sprintf "Targeted %.17g" x)
        end
      done;
      Result.is_ok (Store.validate t))

(* ------------------------------------------------------------------ *)
(* Golden initializations: the departures' bits after Init.feasible
   under every strategy, on seeded tandem, three-tier (1-2-4) and
   feedback stores, plus each store's constraint count. The digests
   were taken from the Bellman-Ford solver the exact passes replaced,
   and the passes reproduce them: a change to the constraint set, the
   passes or the targeted walk that moves a single bit fails here. *)

let golden_store net ~seed ~tasks ~frac =
  lazy
    (let trace = Net_helpers.simulate_n (Rng.create ~seed ()) net tasks in
     let mask = Obs.mask (Rng.create ~seed:(seed + 1) ()) (Obs.Task_fraction frac) trace in
     (Store.of_trace ~observed:mask trace, Params.of_network net))

let golden_tandem =
  golden_store ~seed:301 ~tasks:200 ~frac:0.1
    (Topologies.tandem ~arrival_rate:6.0 ~service_rates:[ 8.0; 7.0 ])

let golden_three_tier =
  golden_store ~seed:303 ~tasks:300 ~frac:0.05
    (Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 ())

let golden_feedback =
  golden_store ~seed:305 ~tasks:200 ~frac:0.1
    (Topologies.feedback ~arrival_rate:3.0 ~service_rate:6.0 ~loop_prob:0.4)

let check_init_golden name fixture ~constraints expected =
  let store0, target = Lazy.force fixture in
  Alcotest.(check int) (name ^ " constraint count") constraints
    (Init.constraint_count store0);
  List.iter
    (fun (strategy_name, strategy, digest) ->
      let store = Store.copy store0 in
      (match Init.feasible ~strategy ~target store with
      | Ok () -> ()
      | Error m -> Alcotest.failf "%s %s: %s" name strategy_name m);
      Alcotest.(check string) (name ^ " " ^ strategy_name) digest (departures_digest store))
    expected

let test_golden_tandem () =
  check_init_golden "tandem" golden_tandem ~constraints:1650
    [
      ("earliest", Init.Earliest, "43fb71ff01ff2634b2d8fa74452a6b16");
      ("latest", Init.Latest, "3de862124782d88da581fb75b3673df8");
      ("centered", Init.Centered, "c8541b328ba40a3b50ee96f44b60782b");
      ("targeted", Init.Targeted, "a737642619f10d3a615803d79f2d2230");
    ]

let test_golden_three_tier () =
  check_init_golden "three-tier" golden_three_tier ~constraints:3343
    [
      ("earliest", Init.Earliest, "2baec5e7e03079d3e839ce80657ae7a1");
      ("latest", Init.Latest, "1ff318ca9aed4c7d1ef46e3bb5a52808");
      ("centered", Init.Centered, "6bb21a0b8bb4999b616099ccddfa2f84");
      ("targeted", Init.Targeted, "388e1ed94a42300fff0b716294540b4a");
    ]

let test_golden_feedback () =
  check_init_golden "feedback" golden_feedback ~constraints:1439
    [
      ("earliest", Init.Earliest, "177949b6afd62410f101ebf27397514b");
      ("latest", Init.Latest, "66e76d5617609f83cabaa6e7f7daa272");
      ("centered", Init.Centered, "67c52a882856485e594e69edc3fef51f");
      ("targeted", Init.Targeted, "37e418aa10a3025c8c38177c53783799");
    ]

(* Allocation ceiling of the targeted initializer per store event, on
   the 10k-event three-tier store. It measured 17.1 B/event: Kahn's
   order and the latest solution, which the walk overwrites, 8 B each,
   and one byte of pending-predecessor counts. Running the earliest
   pass too costs 25, and the difference-constraint system solved by
   Bellman-Ford that the passes replaced cost 261; both fail it. *)
let test_feasible_allocation () =
  let ceiling = 19.0 in
  let store0, target =
    Lazy.force
      (golden_store ~seed:307 ~tasks:2632 ~frac:0.05
         (Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 ()))
  in
  let store = Store.copy store0 in
  let w0 = Qnet_obs.Prof.allocated_words () in
  (match Init.feasible ~target store with Ok () -> () | Error m -> Alcotest.fail m);
  let bytes =
    (Qnet_obs.Prof.allocated_words () -. w0) *. float_of_int (Sys.word_size / 8)
  in
  let per_event = bytes /. float_of_int (Store.num_events store) in
  if per_event > ceiling then
    Alcotest.failf "Init.feasible allocated %.0f B per event (ceiling %.0f)" per_event ceiling

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qnet_init"
    [
      ( "init",
        [
          Alcotest.test_case "all strategies validate" `Quick test_feasible_strategies_validate;
          Alcotest.test_case "observed untouched" `Quick test_feasible_preserves_observed;
          Alcotest.test_case "earliest <= latest" `Quick test_earliest_below_latest;
          Alcotest.test_case "targeted requires target" `Quick test_targeted_requires_target;
          Alcotest.test_case "targeted hits services" `Quick test_targeted_hits_target_services;
          Alcotest.test_case "targeted tail anchored" `Quick
            test_targeted_does_not_strand_tail;
          Alcotest.test_case "constraint count" `Quick test_constraint_count_positive;
          Alcotest.test_case "feedback topology" `Quick test_feedback_topology_init;
          Alcotest.test_case "nothing observed" `Quick test_init_with_nothing_observed;
        ] );
      ( "errors",
        [
          Alcotest.test_case "no room between observations" `Quick test_no_room;
          Alcotest.test_case "FIFO cycle under every mask" `Quick test_fifo_cycle;
          Alcotest.test_case "observed FIFO break undone" `Quick test_observed_fifo_break;
        ] );
      ( "difference-constraints",
        [
          Alcotest.test_case "empty system" `Quick test_dc_empty_system;
          Alcotest.test_case "chain" `Quick test_dc_chain;
          Alcotest.test_case "latest vs earliest" `Quick test_dc_latest_vs_earliest;
          Alcotest.test_case "centered feasible" `Quick test_dc_centered_feasible;
          Alcotest.test_case "negative cycle" `Quick test_dc_negative_cycle;
          Alcotest.test_case "contradictory bounds" `Quick test_dc_contradictory_bounds;
          Alcotest.test_case "bound interaction" `Quick test_dc_bound_interaction;
          Alcotest.test_case "visiting order" `Quick test_dc_visiting_order;
          Alcotest.test_case "20k-var chain fast" `Quick test_dc_long_chain;
        ] );
      ("oracle", [ qc qcheck_passes_match_relaxation ]);
      ( "golden",
        [
          Alcotest.test_case "tandem" `Quick test_golden_tandem;
          Alcotest.test_case "three-tier" `Quick test_golden_three_tier;
          Alcotest.test_case "feedback" `Quick test_golden_feedback;
        ] );
      ("allocation", [ Alcotest.test_case "targeted bytes per event" `Quick test_feasible_allocation ]);
    ]
