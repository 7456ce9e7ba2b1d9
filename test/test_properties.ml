(* Heavyweight property-based tests: randomized networks, masks, and
   chains; the invariants that must survive any composition of the
   library's pieces. *)

module Rng = Qnet_prob.Rng
module D = Qnet_prob.Distributions
module Trace = Qnet_trace.Trace
module Network = Qnet_des.Network
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Init = Qnet_core.Init
module Gibbs = Qnet_core.Gibbs
module Stem = Qnet_core.Stem

let random_network seed =
  let rng = Rng.create ~seed () in
  Net_helpers.random_layered rng ~num_layers:(1 + Rng.int rng 4)
    ~max_width:3 ~arrival_rate:(2.0 +. Rng.float_unit rng *. 6.0)
    ~service_rate_range:(4.0, 20.0)

let random_trace seed =
  let net = random_network seed in
  let rng = Rng.create ~seed:(seed * 31) () in
  let tasks = 30 + Rng.int rng 120 in
  (net, Network.simulate_poisson rng net ~num_tasks:tasks)

(* simulated traces satisfy every model constraint *)
let prop_simulated_traces_valid =
  QCheck.Test.make ~name:"random networks simulate to valid stores" ~count:60
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let _, trace = random_trace seed in
      let store = Store.of_trace trace in
      Store.validate store = Ok ())

(* store services match trace services on every queue *)
let prop_store_matches_trace_services =
  QCheck.Test.make ~name:"store and trace agree on services" ~count:40
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let _, trace = random_trace seed in
      let store = Store.of_trace trace in
      let ok = ref true in
      for q = 0 to trace.Trace.num_queues - 1 do
        let via_trace = Trace.service_times trace q in
        let order = Store.events_at_queue store q in
        if Array.length via_trace <> Array.length order then ok := false
        else
          Array.iteri
            (fun k i ->
              if Float.abs (via_trace.(k) -. Store.service store i) > 1e-9 then
                ok := false)
            order
      done;
      !ok)

(* any mask + targeted init yields a feasible state *)
let prop_init_always_feasible =
  QCheck.Test.make ~name:"targeted init always feasible" ~count:40
    QCheck.(pair (int_range 1 10_000) (float_range 0.02 0.9))
    (fun (seed, frac) ->
      let net, trace = random_trace seed in
      let rng = Rng.create ~seed:(seed + 1) () in
      let mask = Obs.mask rng (Obs.Task_fraction frac) trace in
      let store = Store.of_trace ~observed:mask trace in
      (* wipe the latent values to force real work *)
      Array.iter (fun i -> Store.set_departure store i 12345.0)
        (Store.unobserved_events store);
      match Init.feasible ~target:(Params.of_network net) store with
      | Ok () -> Store.validate store = Ok ()
      | Error _ -> false)

(* Gibbs sweeps never leave the feasible set, on any network and mask *)
let prop_gibbs_preserves_feasibility =
  QCheck.Test.make ~name:"gibbs sweeps preserve feasibility" ~count:25
    QCheck.(pair (int_range 1 10_000) (float_range 0.05 0.5))
    (fun (seed, frac) ->
      let net, trace = random_trace seed in
      let rng = Rng.create ~seed:(seed + 2) () in
      let mask = Obs.mask rng (Obs.Task_fraction frac) trace in
      let store = Store.of_trace ~observed:mask trace in
      let params = Params.of_network net in
      let ok = ref true in
      for _ = 1 to 5 do
        Gibbs.sweep ~shuffle:true rng store params;
        if Store.validate store <> Ok () then ok := false
      done;
      !ok)

(* observed departures are never touched by anything *)
let prop_observed_immutable_through_pipeline =
  QCheck.Test.make ~name:"observed departures survive the pipeline" ~count:15
    QCheck.(pair (int_range 1 10_000) (float_range 0.1 0.6))
    (fun (seed, frac) ->
      let _, trace = random_trace seed in
      let rng = Rng.create ~seed:(seed + 3) () in
      let mask = Obs.mask rng (Obs.Task_fraction frac) trace in
      let store = Store.of_trace ~observed:mask trace in
      let before =
        Array.init (Store.num_events store) (fun i ->
            if Store.observed store i then Some (Store.departure store i) else None)
      in
      let config =
        { Stem.default_config with Stem.iterations = 10; burn_in = 3; warmup_sweeps = 2 }
      in
      let _ = Stem.run ~config rng store in
      let ok = ref true in
      Array.iteri
        (fun i v ->
          match v with
          | Some d -> if Store.departure store i <> d then ok := false
          | None -> ())
        before;
      !ok)

(* the joint likelihood is invariant under to_trace/of_trace roundtrip *)
let prop_roundtrip_likelihood =
  QCheck.Test.make ~name:"to_trace/of_trace preserves likelihood" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let net, trace = random_trace seed in
      let store = Store.of_trace trace in
      let params = Params.of_network net in
      let ll1 = Store.log_likelihood store params in
      let store2 = Store.of_trace (Store.to_trace store) in
      let ll2 = Store.log_likelihood store2 params in
      Float.abs (ll1 -. ll2) < 1e-6)

(* CSV serialization is total and lossless on simulated traces *)
let prop_csv_roundtrip =
  QCheck.Test.make ~name:"CSV roundtrips any simulated trace" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let _, trace = random_trace seed in
      match Trace.of_csv ~num_queues:trace.Trace.num_queues (Trace.to_csv trace) with
      | Error _ -> false
      | Ok trace' ->
          Array.length trace.Trace.events = Array.length trace'.Trace.events
          && Array.for_all2
               (fun a b ->
                 a.Trace.task = b.Trace.task
                 && a.Trace.queue = b.Trace.queue
                 && a.Trace.arrival = b.Trace.arrival
                 && a.Trace.departure = b.Trace.departure)
               trace.Trace.events trace'.Trace.events)

(* utilization is always within [0, 1] on stable simulations *)
let prop_utilization_bounded =
  QCheck.Test.make ~name:"utilization within [0,1]" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let _, trace = random_trace seed in
      let ok = ref true in
      for q = 0 to trace.Trace.num_queues - 1 do
        let u = Trace.utilization trace q in
        if u < -1e-9 || u > 1.0 +. 1e-9 then ok := false
      done;
      !ok)

(* per-task event chains: arrivals equal previous departures *)
let prop_task_chains_connected =
  QCheck.Test.make ~name:"task chains are connected" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let _, trace = random_trace seed in
      let store = Store.of_trace trace in
      let ok = ref true in
      for k = 0 to Store.num_tasks store - 1 do
        let evs = Store.events_of_task store k in
        Array.iteri
          (fun j i ->
            if j > 0 then begin
              let prev = evs.(j - 1) in
              if Float.abs (Store.arrival store i -. Store.departure store prev) > 1e-9
              then ok := false
            end)
          evs
      done;
      !ok)

(* waiting + service = response for every event *)
let prop_waiting_service_decomposition =
  QCheck.Test.make ~name:"waiting + service = response" ~count:30
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let _, trace = random_trace seed in
      let store = Store.of_trace trace in
      let ok = ref true in
      for i = 0 to Store.num_events store - 1 do
        let response = Store.departure store i -. Store.arrival store i in
        if Float.abs (Store.waiting store i +. Store.service store i -. response) > 1e-9
        then ok := false
      done;
      !ok)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qnet_properties"
    [
      ( "pipeline-invariants",
        [
          qc prop_simulated_traces_valid;
          qc prop_store_matches_trace_services;
          qc prop_init_always_feasible;
          qc prop_gibbs_preserves_feasibility;
          qc prop_observed_immutable_through_pipeline;
          qc prop_roundtrip_likelihood;
          qc prop_csv_roundtrip;
          qc prop_utilization_bounded;
          qc prop_task_chains_connected;
          qc prop_waiting_service_decomposition;
        ] );
    ]
