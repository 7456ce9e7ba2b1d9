(* Telemetry overhead benchmark: Gibbs sweep throughput with the
   instrumentation (a) compiled in but disabled — the default for
   every run that passes no telemetry flag — (b) with the metrics
   registry enabled, (c) with metrics and span tracing enabled, and
   (d) with the allocation/GC-pause profiler (Qnet_obs.Prof) running
   alone.

   Each mode's overhead is a paired ratio: every repeat times the mode
   right next to a disabled run, first or second by turns, and the
   overhead is one minus the median of those ratios. A slow spell on a
   shared host slows both sides of a pair, so it cancels, where the
   absolute rates swing by more than the overheads being measured. A
   disabled-vs-disabled control pair, timed the same way, measures
   what is left: its per-pair spread is written out as the noise
   floor.

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

(* Sweeps/s of one timed run. *)
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

(* The paired modes, each against a disabled run; the first is the
   control. *)
let modes =
  [|
    ("control", Disabled);
    ("metrics_enabled", Metrics_on);
    ("metrics_and_tracing", Metrics_and_tracing);
    ("profiling_enabled", Profiling);
  |]

(* Per mode, the per-repeat ratios of its rate to its paired disabled
   run's, sorted; and every disabled rate. The modes take turns within
   each repeat, in an order that rotates. *)
let paired_ratios ~repeats ~sweeps store params =
  let rng = Rng.create ~seed:42 () in
  let nm = Array.length modes in
  let ratios = Array.make_matrix nm repeats 0.0 in
  let disabled = Array.make (nm * repeats) 0.0 in
  let rate mode = with_mode mode (fun () -> sweep_rate rng ~sweeps store params) in
  for r = 0 to repeats - 1 do
    for j = 0 to nm - 1 do
      let m = (r + j) mod nm in
      let mode = snd modes.(m) in
      let base, x =
        if (r + m) mod 2 = 0 then
          let base = rate Disabled in
          (base, rate mode)
        else
          let x = rate mode in
          (rate Disabled, x)
      in
      disabled.((r * nm) + m) <- base;
      ratios.(m).(r) <- x /. base
    done
  done;
  Array.iter (Array.sort compare) ratios;
  Array.sort compare disabled;
  (ratios, disabled)

let quantile sorted q = sorted.(int_of_float (q *. float_of_int (Array.length sorted - 1)))

(* Overhead in percent: what the mode costs against disabled. *)
let overhead_pct ratio = 100.0 *. (1.0 -. ratio)

let () =
  let out = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_obs.json" in
  let store, params = fixture () in
  let events = Array.length (Store.unobserved_events store) in
  (* ~40 ms per timed run at 1140 events: long enough that one
     scheduler hiccup is a small share of it *)
  let repeats = 31 and sweeps = 150 in
  Metrics.set_enabled false;
  Span.disable ();
  (* warmup: fault in code paths, warm the allocator *)
  ignore (sweep_rate (Rng.create ~seed:41 ()) ~sweeps:20 store params);
  (* Off-by-default guard: with no Prof session ever started, the
     sweeps above must not have started the runtime's event rings. *)
  if (Prof.stats ()).Prof.runtime_events_started then
    failwith "obs_overhead: Runtime_events started while the profiler was off";
  let ratios, disabled = paired_ratios ~repeats ~sweeps store params in
  let median = Array.map (fun r -> quantile r 0.5) ratios in
  let control = ratios.(0) in
  (* the control's interquartile spread, in overhead percent *)
  let noise_floor = overhead_pct (quantile control 0.25) -. overhead_pct (quantile control 0.75) in
  let fields f =
    String.concat ","
      (Array.to_list (Array.mapi (fun m (name, _) -> Printf.sprintf "\"%s\":%s" name (f m)) modes))
  in
  let json =
    Printf.sprintf
      "{\"benchmark\":\"obs_overhead\",\"store_events\":%d,\"sweeps_per_run\":%d,\"repeats\":%d,\"disabled_sweeps_per_s\":{\"p25\":%.2f,\"median\":%.2f,\"p75\":%.2f},\"paired_ratio_median\":{%s},\"overhead_pct_vs_disabled\":{%s},\"noise_floor_pct\":%.2f,\"note\":\"each mode's rate over its paired disabled run, median over repeats; the noise floor is the control pair's interquartile spread; a never-started profiler never starts Runtime_events (asserted)\"}\n"
      events sweeps repeats (quantile disabled 0.25) (quantile disabled 0.5)
      (quantile disabled 0.75)
      (fields (fun m -> Printf.sprintf "%.4f" median.(m)))
      (fields (fun m -> Printf.sprintf "%.2f" (overhead_pct median.(m))))
      noise_floor
  in
  let oc = open_out out in
  output_string oc json;
  close_out oc;
  Printf.printf
    "gibbs sweep overhead vs a paired disabled run (%d unobserved events, median of %d pairs):\n"
    events repeats;
  Printf.printf "  disabled             %8.1f sweeps/s (median of %d runs)\n"
    (quantile disabled 0.5) (Array.length disabled);
  Array.iteri
    (fun m (name, _) ->
      Printf.printf "  %-20s %+6.2f%%  (pairs' quartiles %+.2f%% .. %+.2f%%)\n" name
        (overhead_pct median.(m))
        (overhead_pct (quantile ratios.(m) 0.75))
        (overhead_pct (quantile ratios.(m) 0.25)))
    modes;
  Printf.printf "  noise floor          %6.2f%% (control pairs' interquartile spread)\n"
    noise_floor;
  Printf.printf "-> %s\n" out
