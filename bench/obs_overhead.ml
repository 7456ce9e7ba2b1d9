(* Telemetry overhead benchmark: Gibbs sweep throughput with the
   instrumentation (a) compiled in but disabled — the default for
   every run that passes no telemetry flag, contractually within 5% of
   the uninstrumented seed because the disabled path is the seed path
   behind one atomic load — (b) with the metrics registry enabled,
   (c) with metrics and span tracing enabled, and (d) with the
   allocation/GC-pause profiler (Qnet_obs.Prof) running alone.

   The warm-up sweeps, run before any profiler session exists, double
   as the profiler's off-by-default guard: the bench asserts that a
   profiler that was never started never started Runtime_events (the
   off-is-free contract from DESIGN.md section 15 — the off path is
   one extra atomic load per sweep, not per event).

   Writes BENCH_obs.json at the repo root (or the path given as
   argv(1)) and prints the same numbers as a table.

   Run with: dune exec bench/obs_overhead.exe *)

module Rng = Qnet_prob.Rng
module Topologies = Qnet_des.Topologies
module Network = Qnet_des.Network
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Gibbs = Qnet_core.Gibbs
module Init = Qnet_core.Init
module Metrics = Qnet_obs.Metrics
module Span = Qnet_obs.Span
module Prof = Qnet_obs.Prof

let fixture () =
  let net =
    Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4)
      ~service_rate:5.0 ()
  in
  let trace =
    Network.simulate_poisson (Rng.create ~seed:1001 ()) net ~num_tasks:300
  in
  let mask = Obs.mask (Rng.create ~seed:1002 ()) (Obs.Task_fraction 0.05) trace in
  let store = Store.of_trace ~observed:mask trace in
  let params = Params.of_network net in
  (match Init.feasible ~target:params store with
  | Ok () -> ()
  | Error m -> failwith m);
  (store, params)

(* Sweeps/s of one repeat. *)
let sweep_rate rng ~sweeps store params =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to sweeps do
    Gibbs.sweep ~shuffle:false rng store params
  done;
  float_of_int sweeps /. (Unix.gettimeofday () -. t0)

type mode = Disabled | Metrics_on | Metrics_and_tracing | Profiling

(* Run [f] with one telemetry configuration switched on, and everything
   back off afterwards. The profiler runs alone: phase accounting and
   a ring poll at every sweep's phase exit. *)
let with_mode mode f =
  match mode with
  | Disabled -> f ()
  | Metrics_on ->
      Metrics.set_enabled true;
      Fun.protect ~finally:(fun () -> Metrics.set_enabled false) f
  | Metrics_and_tracing ->
      Metrics.set_enabled true;
      Span.enable ~capacity:(1 lsl 16) ();
      Fun.protect
        ~finally:(fun () ->
          ignore (Span.drain ());
          Span.disable ();
          Metrics.set_enabled false)
        f
  | Profiling ->
      Prof.start ();
      Fun.protect ~finally:Prof.stop f

let modes = [| Disabled; Metrics_on; Metrics_and_tracing; Profiling |]

(* Median sweep rate per mode. The modes take turns within every
   repeat, in an order that rotates, so a slow spell on a shared host
   lands on all of them alike instead of on whichever mode it happened
   to coincide with; the median then drops it. *)
let rates_by_mode ~repeats ~sweeps store params =
  let rng = Rng.create ~seed:42 () in
  let nm = Array.length modes in
  let rates = Array.make_matrix nm repeats 0.0 in
  for r = 0 to repeats - 1 do
    for j = 0 to nm - 1 do
      let m = (r + j) mod nm in
      rates.(m).(r) <- with_mode modes.(m) (fun () -> sweep_rate rng ~sweeps store params)
    done
  done;
  Array.map
    (fun a ->
      Array.sort compare a;
      a.(repeats / 2))
    rates

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_obs.json" in
  let store, params = fixture () in
  let events = Array.length (Store.unobserved_events store) in
  (* ~30 ms per repeat at 1140 events: long enough that one scheduler
     hiccup is a small share of a repeat *)
  let repeats = 9 and sweeps = 150 in
  Metrics.set_enabled false;
  Span.disable ();
  (* warmup: fault in code paths, warm the allocator *)
  ignore (sweep_rate (Rng.create ~seed:41 ()) ~sweeps:20 store params);
  (* Off-by-default guard: with no Prof session ever started, the
     sweeps above must not have started the runtime's event rings. *)
  if (Prof.stats ()).Prof.runtime_events_started then
    failwith "obs_overhead: Runtime_events started while the profiler was off";
  let rates = rates_by_mode ~repeats ~sweeps store params in
  let disabled = rates.(0) and metrics_on = rates.(1) in
  let tracing_on = rates.(2) and profiling_on = rates.(3) in

  let pct base x = 100.0 *. (base -. x) /. base in
  let json =
    Printf.sprintf
      "{\"benchmark\":\"obs_overhead\",\"store_events\":%d,\"sweeps_per_repeat\":%d,\"repeats\":%d,\"sweep_rate_per_s\":{\"telemetry_disabled\":%.2f,\"metrics_enabled\":%.2f,\"metrics_and_tracing\":%.2f,\"profiling_enabled\":%.2f},\"overhead_pct_vs_disabled\":{\"metrics_enabled\":%.2f,\"metrics_and_tracing\":%.2f,\"profiling_enabled\":%.2f},\"budget\":{\"disabled_vs_seed_pct_max\":5.0,\"note\":\"the disabled path is the seed code behind one atomic load per sweep/event site; a never-started profiler never starts Runtime_events (asserted)\"}}\n"
      events sweeps repeats disabled metrics_on tracing_on profiling_on
      (pct disabled metrics_on) (pct disabled tracing_on)
      (pct disabled profiling_on)
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf "gibbs sweep throughput (%d unobserved events, median of %d):\n"
    events repeats;
  Printf.printf "  telemetry disabled   %8.1f sweeps/s\n" disabled;
  Printf.printf "  metrics enabled      %8.1f sweeps/s  (%+.1f%% vs disabled)\n"
    metrics_on (-.pct disabled metrics_on);
  Printf.printf "  metrics + tracing    %8.1f sweeps/s  (%+.1f%% vs disabled)\n"
    tracing_on (-.pct disabled tracing_on);
  Printf.printf "  profiling (alone)    %8.1f sweeps/s  (%+.1f%% vs disabled)\n"
    profiling_on (-.pct disabled profiling_on);
  Printf.printf "-> %s\n" out
