(* Tests for feasible initialization (difference constraints, greedy
   targeted walk, and the paper's LP). *)

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

let test_lp_init_small () =
  let _, _, store = masked ~seed:208 ~tasks:8 ~frac:0.25 () in
  scramble store;
  let target = Params.create ~rates:[| 6.0; 8.0; 7.0 |] ~arrival_queue:0 in
  match Init.lp store target with
  | Ok objective -> (
      Alcotest.(check bool) "objective non-negative" true (objective >= -1e-9);
      match Store.validate store with
      | Ok () -> ()
      | Error m -> Alcotest.failf "LP produced invalid state: %s" m)
  | Error m -> Alcotest.failf "LP failed: %s" m

let test_lp_objective_beats_greedy () =
  (* the LP minimizes sum |s_relaxed - target|; the greedy targeted walk
     is one feasible point of that LP (with the relaxed start set to
     the true max), so the LP optimum must be no worse than the
     greedy's recomputed objective *)
  let objective store target =
    let acc = ref 0.0 in
    for i = 0 to Store.num_events store - 1 do
      acc := !acc
        +. Float.abs (Store.service store i -. Params.mean_service target (Store.queue store i))
    done;
    !acc
  in
  let target = Params.create ~rates:[| 6.0; 8.0; 7.0 |] ~arrival_queue:0 in
  let _, _, s_lp = masked ~seed:209 ~tasks:8 ~frac:0.25 () in
  let _, _, s_greedy = masked ~seed:209 ~tasks:8 ~frac:0.25 () in
  scramble s_lp;
  scramble s_greedy;
  let o_lp =
    match Init.lp s_lp target with Ok v -> v | Error m -> Alcotest.fail m
  in
  (match Init.feasible ~strategy:Init.Targeted ~target s_greedy with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  let o_greedy = objective s_greedy target in
  Alcotest.(check bool)
    (Printf.sprintf "LP %.4f <= greedy %.4f + eps" o_lp o_greedy)
    true
    (o_lp <= o_greedy +. 1e-6)

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
(* Golden initializations: the departures' bits after Init.feasible
   under every strategy, on seeded tandem, three-tier (1-2-4) and
   feedback stores, plus each store's constraint count. The solver
   relaxes an edge only on an improvement of more than 1e-12, so its
   result depends on the order in which it visits edges: a change to
   that order, to the constraint set or to the targeted walk that moves
   a single bit fails here. *)

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

let departures_digest store =
  let b = Buffer.create (8 * Store.num_events store) in
  for i = 0 to Store.num_events store - 1 do
    Buffer.add_int64_le b (Int64.bits_of_float (Store.departure store i))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

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
   the 10k-event three-tier store. It measured 261 B/event: the
   constraint arrays, sized by a count taken first, the solver's
   compressed rows and work arrays, and the walk's rows. Constraint
   arrays that grow by doubling cost about 362, and a solver that
   builds lists or tuples per constraint about 1,650; both fail it. *)
let test_feasible_allocation () =
  let ceiling = 290.0 in
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
          Alcotest.test_case "LP init small" `Quick test_lp_init_small;
          Alcotest.test_case "LP beats greedy" `Quick test_lp_objective_beats_greedy;
          Alcotest.test_case "feedback topology" `Quick test_feedback_topology_init;
          Alcotest.test_case "nothing observed" `Quick test_init_with_nothing_observed;
        ] );
      ( "golden",
        [
          Alcotest.test_case "tandem" `Quick test_golden_tandem;
          Alcotest.test_case "three-tier" `Quick test_golden_three_tier;
          Alcotest.test_case "feedback" `Quick test_golden_feedback;
        ] );
      ("allocation", [ Alcotest.test_case "targeted bytes per event" `Quick test_feasible_allocation ]);
    ]
