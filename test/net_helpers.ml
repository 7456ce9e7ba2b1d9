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
