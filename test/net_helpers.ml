(* Shared helpers for the test suite. *)

module Rng = Qnet_prob.Rng
module Network = Qnet_des.Network
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params

(* Simulate [n] tasks with Poisson arrivals at the network's own q0
   rate. *)
let simulate_n rng net n = Network.simulate_poisson rng net ~num_tasks:n

(* Simulate, mask, and build an event store in one call. *)
let masked_store ?(scheme = Qnet_core.Observation.Task_fraction 0.1) rng net n =
  let trace = simulate_n rng net n in
  let mask = Qnet_core.Observation.mask rng scheme trace in
  let store = Qnet_core.Event_store.of_trace ~observed:mask trace in
  (trace, mask, store)

(* A random layered network for the property tests: each of the
   [num_layers] tiers gets 1..[max_width] parallel queues with service
   rates uniform in [service_rate_range]; each task visits one
   uniformly chosen queue per tier. Every tier but one randomly chosen
   anchor is skipped with probability 0.2, so the path never becomes
   empty. *)
let random_layered rng ~num_layers ~max_width ~arrival_rate ~service_rate_range:(lo, hi) =
  let module D = Qnet_prob.Distributions in
  let widths = Array.init num_layers (fun _ -> 1 + Rng.int rng max_width) in
  let skipped =
    let anchor = Rng.int rng num_layers in
    Array.init num_layers (fun l -> l <> anchor && Rng.float_unit rng < 0.2)
  in
  let kept = Array.to_list widths |> List.filteri (fun l _ -> not skipped.(l)) in
  let num_kept = List.length kept in
  let offsets = Array.make num_kept 0 in
  ignore
    (List.fold_left
       (fun (i, acc) w ->
         offsets.(i) <- acc;
         (i + 1, acc + w))
       (0, 1) kept);
  let num_queues = 1 + List.fold_left ( + ) 0 kept in
  (* states: 0 = initial (emits q0), 1..num_kept = layers, final last *)
  let final = num_kept + 1 in
  let transitions = List.init (num_kept + 1) (fun s -> (s, [ (s + 1, 1.0) ])) in
  let emissions =
    (0, [ (0, 1.0) ])
    :: List.mapi (fun i w -> (i + 1, List.init w (fun k -> (offsets.(i) + k, 1.0)))) kept
  in
  let fsm =
    Qnet_fsm.Fsm.create ~num_states:(final + 1) ~num_queues ~initial:0 ~final
      ~transitions ~emissions
  in
  let service =
    Array.init num_queues (fun q ->
        if q = 0 then D.Exponential arrival_rate
        else D.Exponential (Rng.float_range rng lo hi))
  in
  Network.create ~fsm ~service ()

(* The contents of a golden file of this directory. [dune runtest] runs
   the tests from the build copy of test/, where the files are
   dependencies; [dune exec test/<name>.exe] runs them from the
   repository root. *)
let read_golden name =
  let path = if Sys.file_exists name then name else Filename.concat "test" name in
  In_channel.with_open_bin path In_channel.input_all

(* Run [f] plain, with metrics enabled, inside a profiling session, or
   traced: span tracing and a profiling session together. Telemetry,
   tracing and profiling must not consume draws, so a seeded chain's
   bits are the same in every mode. The metrics mode starts from an
   empty diagnostics hub: the hub fixes its queue count on the first
   iterate it sees. *)
let with_mode mode f =
  match mode with
  | `Plain -> f ()
  | `Metrics ->
      Qnet_obs.Diagnostics.reset Qnet_obs.Diagnostics.default;
      Qnet_obs.Metrics.set_enabled true;
      Fun.protect ~finally:(fun () -> Qnet_obs.Metrics.set_enabled false) f
  | `Profiled ->
      Qnet_obs.Prof.start ();
      Fun.protect ~finally:Qnet_obs.Prof.stop f
  | `Traced ->
      Qnet_obs.Span.enable ();
      Qnet_obs.Prof.start ();
      Fun.protect
        ~finally:(fun () ->
          Qnet_obs.Prof.stop ();
          Qnet_obs.Span.disable ())
        f

let modes =
  [ ("plain", `Plain); ("metrics", `Metrics); ("profiled", `Profiled); ("traced", `Traced) ]

(* [check_modes name expected f] runs [f] in every mode and checks each
   result string against [expected]. *)
let check_modes name expected f =
  List.iter
    (fun (mode_name, mode) ->
      Alcotest.(check string) (name ^ ", " ^ mode_name) expected (with_mode mode f))
    modes

let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)
let add_params b p = Array.iter (add_float b) p.Params.rates

(* Hex digest of a StEM run's bits: every history rate, every
   log-likelihood, the mean service, the final iterate, the whole store
   snapshot (departures and the queue and ρ structure) and the
   generator state. *)
let stem_digest ~history ~llh ~mean_service ~params_last store rng =
  let b = Buffer.create 65536 in
  Array.iter (add_params b) history;
  Array.iter (add_float b) llh;
  Array.iter (add_float b) mean_service;
  add_params b params_last;
  let s = Store.snapshot store in
  Array.iter (add_float b) s.Store.s_departure;
  List.iter
    (Array.iter (fun i -> Buffer.add_int64_le b (Int64.of_int i)))
    [ s.Store.s_queue; s.Store.s_rho; s.Store.s_rho_inv; s.Store.s_heads ];
  Array.iter (Buffer.add_int64_le b) (Rng.state rng);
  Digest.to_hex (Digest.string (Buffer.contents b))
