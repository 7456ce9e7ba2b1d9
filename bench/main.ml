(* Benchmark harness.

   Part 1 (Bechamel): one micro-benchmark per experiment kernel — the
   pieces whose cost determines each table/figure of the paper:

     fig4/*      the Figure 4 pipeline's kernels (Gibbs sweep, StEM
                 iteration, baseline estimator) on a paper-structure
                 store at 5% observation;
     fig5/*      the Figure 5 kernels on a (reduced) webapp store;
     kernel/*    the Figure 3 conditional itself (density build,
                 exact sampling);
     substrate/* simulator, targeted initializer, Jackson analysis.

   Part 2: the experiment harness at --quick scale, printing the same
   rows/series the paper's tables and figures report (full-scale runs:
   bin/qnet_experiments).

   Run with: dune exec bench/main.exe

   Regression mode: `dune exec bench/main.exe -- --core-json [PATH]
   [--sizes 1k,10k,100k,1m]` skips Bechamel and the experiments and
   instead runs the ROADMAP size sweep: per store size it times Gibbs
   sweeps/s directly (median of repeats) in index order (the order
   every sampler uses) and shuffled, each repeat next to a
   host reference, and reports the median ratio of the two (sweeps per
   reference), measures exact allocated
   bytes/sweep on the plain hot path in both orders, times the
   targeted Init.feasible on a copy of the store and counts its bytes
   per store event, counts the bytes per event that set-up allocates
   (Trace.of_csv, then the mask and Event_store.of_trace, then
   Stem.initial_guess on that store), and takes a
   short profiled pass (Qnet_obs.Prof)
   for GC pause p50/p99 and the phase self-time split; StEM
   iterations/s and piecewise draws/s are timed on the 1k fixture (the
   draws next to a loop of the libm calls a draw makes), and
   Trace.of_csv parses/s on the 10k trace's text, next to a pass of
   reads over that text.
   Everything lands in PATH (default BENCH_core.json, schema 2, one
   size object per line). `make bench` compares that file against the
   committed baseline per size and fails when an in-order speed
   relative to the host reference drops past the measured noise (the
   shuffled sweep's is info), on a plain sweep that
   allocates more than 1 byte per
   resampled event, or on an Init.feasible, a parse, a store build or
   an initial guess over its byte budget per event
   (scripts/bench_compare). *)

open Bechamel
open Toolkit
module Rng = Qnet_prob.Rng
module Trace = Qnet_trace.Trace
module Topologies = Qnet_des.Topologies
module Network = Qnet_des.Network
module Webapp = Qnet_webapp.Webapp
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Gibbs = Qnet_core.Gibbs
module Init = Qnet_core.Init
module Stem = Qnet_core.Stem
module Estimators = Qnet_core.Estimators
module Jackson = Qnet_analytic.Jackson
module Prof = Qnet_obs.Prof
module E = Qnet_experiments

(* ------------------------------------------------------------------ *)
(* prepared fixtures (built once; the benchmarks mutate copies) *)

let fig4_net = Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 ()

let fig4_trace =
  let rng = Rng.create ~seed:1001 () in
  Network.simulate_poisson rng fig4_net ~num_tasks:300

(* 5% of tasks observed, as on every store of the size sweep *)
let mask_of trace = Obs.mask (Rng.create ~seed:1002 ()) (Obs.Task_fraction 0.05) trace

let fig4_mask = mask_of fig4_trace

let fig4_store =
  let store = Store.of_trace ~observed:fig4_mask fig4_trace in
  let params = Params.of_network fig4_net in
  (match Init.feasible ~target:params store with
  | Ok () -> ()
  | Error m -> failwith m);
  store

let fig4_params = Params.of_network fig4_net

let fig5_config =
  { Webapp.default_config with Webapp.num_requests = 800; duration = 300.0 }

let fig5_trace = Webapp.generate (Rng.create ~seed:1003 ()) fig5_config

let fig5_store =
  let mask = Obs.mask (Rng.create ~seed:1004 ()) (Obs.Task_fraction 0.1) fig5_trace in
  let store = Store.of_trace ~observed:mask fig5_trace in
  let guess = Stem.initial_guess store in
  (match Init.feasible ~target:guess store with Ok () -> () | Error m -> failwith m);
  store

let fig5_params = Stem.initial_guess fig5_store

let kernel_event =
  (* a latent event in the middle of the store with a bounded window *)
  let unobserved = Store.unobserved_events fig4_store in
  unobserved.(Array.length unobserved / 2)

let observed_tasks_fixture = Obs.observed_tasks fig4_trace fig4_mask

(* ------------------------------------------------------------------ *)
(* benchmarks *)

let bench_rng = Rng.create ~seed:1006 ()

let tests =
  Test.make_grouped ~name:"qnet"
    [
      Test.make_grouped ~name:"fig4"
        [
          Test.make ~name:"gibbs-sweep-5pct-1200ev"
            (Staged.stage (fun () ->
                 Gibbs.sweep ~shuffle:false bench_rng fig4_store fig4_params));
          Test.make ~name:"stem-iteration"
            (Staged.stage (fun () ->
                 Gibbs.sweep ~shuffle:false bench_rng fig4_store fig4_params;
                 ignore
                   (Stem.mle_step fig4_store ~previous:fig4_params
                      ~min_queue_events:1)));
          Test.make ~name:"baseline-estimator"
            (Staged.stage (fun () ->
                 ignore
                   (Estimators.mean_observed_service fig4_trace
                      ~observed_tasks:observed_tasks_fixture)));
        ];
      Test.make_grouped ~name:"fig5"
        [
          Test.make ~name:"gibbs-sweep-webapp-3200ev"
            (Staged.stage (fun () ->
                 Gibbs.sweep ~shuffle:false bench_rng fig5_store fig5_params));
          Test.make ~name:"initial-guess-webapp"
            (Staged.stage (fun () -> ignore (Stem.initial_guess fig5_store)));
        ];
      Test.make_grouped ~name:"kernel"
        [
          Test.make ~name:"local-density"
            (Staged.stage (fun () ->
                 ignore (Gibbs.local_density fig4_store fig4_params kernel_event)));
          Test.make ~name:"sample-conditional"
            (Staged.stage (fun () ->
                 ignore
                   (Gibbs.sample_event bench_rng fig4_store fig4_params kernel_event)));
        ];
      Test.make_grouped ~name:"substrate"
        [
          Test.make ~name:"simulate-300-tasks"
            (Staged.stage (fun () ->
                 ignore (Network.simulate_poisson bench_rng fig4_net ~num_tasks:300)));
          Test.make ~name:"init-targeted"
            (Staged.stage (fun () ->
                 ignore (Init.feasible ~target:fig4_params fig4_store)));
          Test.make ~name:"jackson-analysis"
            (Staged.stage (fun () ->
                 ignore (Jackson.analyze ~arrival_rate:10.0 fig4_net)));
          Test.make ~name:"webapp-generate-800"
            (Staged.stage (fun () -> ignore (Webapp.generate bench_rng fig5_config)));
        ];
    ]

(* ------------------------------------------------------------------ *)
(* --core-json: direct-timed core throughput for regression gating.
   Bechamel's OLS output is great for humans but awkward to diff in a
   script; these loops measure the same three hot paths as plain
   work-per-second, median over repeats so one noisy repeat (GC,
   scheduler) cannot fake a regression either way. *)

(* The host reference for a store: a frozen, sweep-shaped read of the
   store's own arrays, in the order a sweep visits them. Per event it
   reads the event's departure and those of its task and queue
   neighbours, as the kernel does, and takes a log and an exp. It calls
   no qnet code, so no change to the sampler moves it, while it shares
   the sweep's data and access pattern, and so its cache and memory
   behaviour on this host. The result runs [passes] passes over
   [order]. *)
let reference store order =
  let v = Store.view store in
  let d = v.Store.v_departure and pi = v.Store.v_pi and rho = v.Store.v_rho in
  let pi_inv = v.Store.v_pi_inv and rho_inv = v.Store.v_rho_inv in
  let at a i = if i >= 0 then a.(i) else 0.0 in
  fun passes ->
    let acc = ref 0.0 in
    for _ = 1 to passes do
      Array.iter
        (fun f ->
          let x = d.(f) -. at d pi.(f) and y = d.(f) -. at d rho.(f) in
          let z = at d pi_inv.(f) +. at d rho_inv.(f) in
          acc := !acc +. Float.log (1.0 +. Float.abs x) +. Float.exp (-.Float.abs (y +. z)))
        order
    done;
    ignore (Sys.opaque_identity !acc)

(* The host reference for the parse: one pass over the same CSV text
   that reads every byte and folds each run of digits into an int, as
   any scanner of the text must, but converts nothing and allocates
   nothing. It calls no qnet code, so no change to the parser moves it.
   The result runs [passes] passes. *)
let text_reference text passes =
  let acc = ref 0 and sum = ref 0 in
  for _ = 1 to passes do
    for k = 0 to String.length text - 1 do
      match String.unsafe_get text k with
      | '0' .. '9' as c -> acc := (10 * !acc) + Char.code c - 48
      | _ ->
          sum := !sum lxor !acc;
          acc := 0
    done
  done;
  ignore (Sys.opaque_identity !sum)

(* The host reference for the draw: the calls a three-piece move
   makes, an exp and an expm1 per piece and a log1p to invert, over a
   fixed array of rate-times-width products of both signs. A draw is
   bound by those libm calls, not by memory, so it tracks this loop
   through the host's fast and slow spells where it does not track a
   store pass. It calls no qnet code, so no change to the kernel moves
   it. Like the kernel it allocates nothing. The result runs [passes]
   passes. *)
let draw_reference =
  let rws =
    Array.init 64 (fun i ->
        (if i land 1 = 0 then 1.0 else -1.0) *. (0.05 +. (float_of_int i /. 16.0)))
  in
  fun passes ->
    let acc = ref 0.0 in
    for _ = 1 to passes do
      for i = 0 to Array.length rws - 3 do
        let a = rws.(i) and b = rws.(i + 1) and c = rws.(i + 2) in
        let ma = Float.exp (-.Float.abs a) *. (Float.expm1 a /. a) in
        let mb = Float.exp (-.Float.abs b) *. (Float.expm1 b /. b) in
        let mc = Float.exp (-.Float.abs c) *. (Float.expm1 c /. c) in
        acc := !acc +. (Float.log1p (Float.abs (ma -. mb)) /. mc)
      done
    done;
    ignore (Sys.opaque_identity !acc)

(* Median work/s over [repeats] repeats of [per_repeat] calls, and
   the median per-repeat ratio of the time of one [reference] pass to
   the time of one call. Each repeat times the reference right next to
   its work, first or second by turns, and for as many passes as last
   about as long as the work, so that both sides of the pair see the
   same host: the ratio is the host-relative number the gate reads,
   where the rate swings with the host. *)
let median_rate ~repeats ~work ~per_repeat ~reference =
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let run () =
    for _ = 1 to per_repeat do
      work ()
    done
  in
  let t_pass = time (fun () -> reference 1) in
  let passes = Int.max 1 (Float.to_int (Float.round (time run /. t_pass))) in
  let pairs =
    Array.init repeats (fun r ->
        let t_ref, t_work =
          if r mod 2 = 0 then
            let t_ref = time (fun () -> reference passes) in
            (t_ref, time run)
          else
            let t_work = time run in
            (time (fun () -> reference passes), t_work)
        in
        ( float_of_int per_repeat /. t_work,
          t_ref /. float_of_int passes /. (t_work /. float_of_int per_repeat) ))
  in
  let median a =
    Array.sort compare a;
    a.(repeats / 2)
  in
  (median (Array.map fst pairs), median (Array.map snd pairs))

(* The ROADMAP size sweep: the same three-tier topology at 1k / 10k /
   100k / 1M unobserved events (events ~= 3.8 x tasks at 5%
   observation). The 1k rung IS the historical fig4 fixture, so its
   sweeps/s stays comparable across baselines. The larger stores sweep
   the simulated configuration as it is: a simulated trace is already
   a feasible latent configuration (it is the ground truth), so the
   timed sweeps do not depend on the initializer. Init.feasible is
   measured on its own, on a copy of each store. *)
type size_spec = {
  label : string;
  tasks : int;
  repeats : int;  (* timing repeats (median taken) *)
  sweeps_per_repeat : int;
  profiled_sweeps : int;  (* extra profiled pass for pauses/phases *)
}

let size_specs =
  [
    { label = "1k"; tasks = 300; repeats = 7; sweeps_per_repeat = 60; profiled_sweeps = 20 };
    { label = "10k"; tasks = 2632; repeats = 5; sweeps_per_repeat = 8; profiled_sweeps = 5 };
    { label = "100k"; tasks = 26316; repeats = 3; sweeps_per_repeat = 3; profiled_sweeps = 2 };
    { label = "1m"; tasks = 263158; repeats = 3; sweeps_per_repeat = 1; profiled_sweeps = 1 };
  ]

let size_store spec =
  if spec.tasks = 300 then (fig4_trace, fig4_store, fig4_params)
  else begin
    let trace =
      Network.simulate_poisson (Rng.create ~seed:1001 ()) fig4_net
        ~num_tasks:spec.tasks
    in
    (trace, Store.of_trace ~observed:(mask_of trace) trace, fig4_params)
  end

type size_result = {
  spec : size_spec;
  events : int;
  sweeps_per_s : float;
  sweeps_per_ref : float;
  alloc_bytes_per_sweep : float;
  shuffled_sweeps_per_s : float;
  shuffled_sweeps_per_ref : float;
  shuffled_alloc_bytes_per_sweep : float;
  init_s : float;
  init_alloc_bytes_per_event : float;
  parse_alloc_bytes_per_event : float;
  store_alloc_bytes_per_event : float;
  guess_alloc_bytes_per_event : float;
  repair_alloc_bytes_per_event : float;
  pause_minor : Prof.pause_stats;
  pause_major : Prof.pause_stats;
  pauses_recorded : int;
  phase_self : (string * float) list;
}

(* Median sweeps/s over the spec's repeats, the median ratio to a
   pass of the store's reference in the same order (sweeps per
   reference), and the bytes each sweep allocated on the plain
   (unprofiled, unmetered) path, counted by Prof.allocated_words over
   as many sweeps again, untimed, so that the timing's own allocation
   is not counted. *)
let time_sweeps spec ~shuffle rng store params =
  let order = if shuffle then Store.shuffled_latent store (Rng.create ~seed:7 ()) else Store.latent store in
  let reference = reference store order in
  let sweeps_per_s, sweeps_per_ref =
    median_rate ~repeats:spec.repeats ~per_repeat:spec.sweeps_per_repeat
      ~work:(fun () -> Gibbs.sweep ~shuffle rng store params)
      ~reference
  in
  let total_sweeps = spec.repeats * spec.sweeps_per_repeat in
  let a0 = Prof.allocated_words () in
  for _ = 1 to total_sweeps do
    Gibbs.sweep ~shuffle rng store params
  done;
  ( sweeps_per_s,
    sweeps_per_ref,
    (Prof.allocated_words () -. a0)
    *. float_of_int (Sys.word_size / 8)
    /. float_of_int total_sweeps )

(* Median seconds of the targeted Init.feasible over the spec's
   repeats, each on a fresh copy of the store, and the bytes the first
   one allocated per event of the store, observed or not (the count is
   deterministic). *)
let time_init spec store params =
  let run () =
    let copy = Store.copy store in
    let a0 = Prof.allocated_words () in
    let t0 = Unix.gettimeofday () in
    (match Init.feasible ~target:params copy with Ok () -> () | Error m -> failwith m);
    let t = Unix.gettimeofday () -. t0 in
    (t, (Prof.allocated_words () -. a0) *. float_of_int (Sys.word_size / 8))
  in
  let runs = Array.init spec.repeats (fun _ -> run ()) in
  let times = Array.map fst runs in
  Array.sort compare times;
  ( times.(spec.repeats / 2),
    snd runs.(0) /. float_of_int (Store.num_events store) )

(* Bytes per trace event that set-up allocates: Trace.of_csv on the
   trace's to_csv text, which is rendered outside the count, then
   Observation.mask plus Event_store.of_trace, then Stem.initial_guess
   on the size's store, then the lenient repair a serve refit runs,
   Trace.of_events_lenient, on the trace's events as a list built
   outside the count. All four counts are deterministic. *)
let setup_alloc trace store =
  let per_event f =
    let a0 = Prof.allocated_words () in
    ignore (Sys.opaque_identity (f ()));
    (Prof.allocated_words () -. a0)
    *. float_of_int (Sys.word_size / 8)
    /. float_of_int (Array.length trace.Trace.events)
  in
  let csv = Trace.to_csv trace in
  let events = Array.to_list trace.Trace.events in
  ( per_event (fun () -> Trace.of_csv ~num_queues:trace.Trace.num_queues csv),
    per_event (fun () -> Store.of_trace ~observed:(mask_of trace) trace),
    per_event (fun () -> Stem.initial_guess store),
    per_event (fun () -> Trace.of_events_lenient ~num_queues:trace.Trace.num_queues events) )

let run_size spec =
  let trace, store, params = size_store spec in
  let events = Array.length (Store.unobserved_events store) in
  let rng = Rng.create ~seed:42 () in
  (* warmup: fault in code paths, warm the allocator *)
  for _ = 1 to Stdlib.min 3 spec.sweeps_per_repeat + 1 do
    Gibbs.sweep ~shuffle:false rng store params
  done;
  let sweeps_per_s, sweeps_per_ref, alloc_bytes_per_sweep =
    time_sweeps spec ~shuffle:false rng store params
  in
  let shuffled_sweeps_per_s, shuffled_sweeps_per_ref, shuffled_alloc_bytes_per_sweep =
    time_sweeps spec ~shuffle:true rng store params
  in
  (* Profiled pass: GC pauses (every collection in the pass, read from
     the runtime's event rings) and the per-phase self-time split come
     from a short Prof session. *)
  Prof.start ();
  for _ = 1 to spec.profiled_sweeps do
    Gibbs.sweep ~shuffle:false rng store params
  done;
  Prof.stop ();
  let pauses = Prof.pause_summary () in
  let find k = List.assoc k pauses in
  let pstats = Prof.stats () in
  (* Last, so that Init's store copies and constraint arrays are not
     on the major heap while the sweeps above are timed. *)
  let init_s, init_alloc_bytes_per_event = time_init spec store params in
  let ( parse_alloc_bytes_per_event,
        store_alloc_bytes_per_event,
        guess_alloc_bytes_per_event,
        repair_alloc_bytes_per_event ) =
    setup_alloc trace store
  in
  {
    spec;
    events;
    sweeps_per_s;
    sweeps_per_ref;
    alloc_bytes_per_sweep;
    shuffled_sweeps_per_s;
    shuffled_sweeps_per_ref;
    shuffled_alloc_bytes_per_sweep;
    init_s;
    init_alloc_bytes_per_event;
    parse_alloc_bytes_per_event;
    store_alloc_bytes_per_event;
    guess_alloc_bytes_per_event;
    repair_alloc_bytes_per_event;
    pause_minor = find Prof.Minor;
    pause_major = find Prof.Major;
    pauses_recorded = pstats.Prof.pauses_recorded;
    phase_self = Prof.phase_split ();
  }

let jnum v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null"

let size_json r =
  let phase_keys =
    r.phase_self
    |> List.map (fun (leaf, self_s) ->
           let flat =
             String.map (fun c -> if c = '.' then '_' else c) leaf
           in
           Printf.sprintf ",\"phase_%s_self_s\":%s" flat (jnum self_s))
    |> String.concat ""
  in
  Printf.sprintf
    "\"%s\":{\"tasks\":%d,\"store_events\":%d,\"repeats\":%d,\"gibbs_sweeps_per_s\":%.2f,\"gibbs_sweeps_per_ref\":%.4f,\"alloc_bytes_per_sweep\":%.1f,\"shuffled_sweeps_per_s\":%.2f,\"shuffled_sweeps_per_ref\":%.4f,\"shuffled_alloc_bytes_per_sweep\":%.1f,\"init_s\":%.6g,\"init_alloc_bytes_per_event\":%.1f,\"parse_alloc_bytes_per_event\":%.1f,\"store_alloc_bytes_per_event\":%.1f,\"guess_alloc_bytes_per_event\":%.1f,\"repair_alloc_bytes_per_event\":%.1f,\"minor_pause_p50_s\":%s,\"minor_pause_p99_s\":%s,\"major_pause_p50_s\":%s,\"major_pause_p99_s\":%s,\"gc_pauses\":%d%s}"
    r.spec.label r.spec.tasks r.events r.spec.repeats r.sweeps_per_s r.sweeps_per_ref
    r.alloc_bytes_per_sweep r.shuffled_sweeps_per_s r.shuffled_sweeps_per_ref
    r.shuffled_alloc_bytes_per_sweep r.init_s r.init_alloc_bytes_per_event r.parse_alloc_bytes_per_event
    r.store_alloc_bytes_per_event r.guess_alloc_bytes_per_event r.repair_alloc_bytes_per_event
    (jnum r.pause_minor.Prof.p50_s)
    (jnum r.pause_minor.Prof.p99_s) (jnum r.pause_major.Prof.p50_s)
    (jnum r.pause_major.Prof.p99_s) r.pauses_recorded phase_keys

let core_json ~sizes out =
  let specs =
    match sizes with
    | None -> size_specs
    | Some wanted ->
        List.filter (fun s -> List.mem s.label wanted) size_specs
  in
  if specs = [] then failwith "--sizes matched no size (known: 1k 10k 100k 1m)";
  let repeats = 7 in
  let rng = Rng.create ~seed:42 () in
  let fig4_reference = reference fig4_store (Store.latent fig4_store) in
  (* warmup: fault in code paths, warm the allocator *)
  for _ = 1 to 20 do
    Gibbs.sweep ~shuffle:false rng fig4_store fig4_params
  done;
  let stem_iterations, stem_iterations_per_ref =
    median_rate ~repeats ~per_repeat:40
      ~work:(fun () ->
        Gibbs.sweep ~shuffle:false rng fig4_store fig4_params;
        ignore
          (Stem.mle_step fig4_store ~previous:fig4_params ~min_queue_events:1))
      ~reference:fig4_reference
  in
  let piecewise_draws, piecewise_draws_per_ref =
    median_rate ~repeats ~per_repeat:60_000
      ~work:(fun () ->
        ignore (Gibbs.sample_event rng fig4_store fig4_params kernel_event))
      ~reference:draw_reference
  in
  (* Trace.of_csv on the 10k trace's to_csv text, next to passes of
     its text reference *)
  let parse_trace =
    Network.simulate_poisson (Rng.create ~seed:1001 ()) fig4_net ~num_tasks:2632
  in
  let csv = Trace.to_csv parse_trace in
  let csv_parses, csv_parses_per_ref =
    median_rate ~repeats ~per_repeat:10
      ~work:(fun () ->
        ignore
          (Sys.opaque_identity (Trace.of_csv ~num_queues:parse_trace.Trace.num_queues csv)))
      ~reference:(text_reference csv)
  in
  let results = List.map run_size specs in
  let legacy =
    match List.find_opt (fun r -> r.spec.label = "1k") results with
    | Some r -> r
    | None -> List.hd results
  in
  (* One size object per line: scripts/bench_compare (POSIX sh + awk)
     slices per-size keys by grepping the "LABEL":{...} line. *)
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\"benchmark\":\"core\",\"schema\":2,\n\"sizes\":{\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf (size_json r);
      if i < List.length results - 1 then Buffer.add_char buf ',';
      Buffer.add_char buf '\n')
    results;
  Buffer.add_string buf
    (Printf.sprintf
       "},\n\"gibbs_sweeps_per_s\":%.2f,\"stem_iterations_per_s\":%.2f,\"piecewise_draws_per_s\":%.2f,\"csv_parses_per_s\":%.2f,\"gibbs_sweeps_per_ref\":%.4f,\"stem_iterations_per_ref\":%.4f,\"piecewise_draws_per_ref\":%.4f,\"csv_parses_per_ref\":%.4f}\n"
       legacy.sweeps_per_s stem_iterations piecewise_draws csv_parses legacy.sweeps_per_ref
       stem_iterations_per_ref piecewise_draws_per_ref csv_parses_per_ref);
  let oc = open_out out in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "core throughput (median of repeats):\n";
  List.iter
    (fun r ->
      Printf.printf
        "  %-4s %8d events: %10.2f sweeps/s in order (%.3f per reference, %.0f alloc B/sweep), %10.2f shuffled (%.3f, %.0f B), init %.3f s (%.0f B/event), parse %.0f B/event, store %.0f B/event, guess %.1f B/event, repair %.0f B/event, %d GC pause(s) [minor p99 %s, major p99 %s]\n"
        r.spec.label r.events r.sweeps_per_s r.sweeps_per_ref r.alloc_bytes_per_sweep
        r.shuffled_sweeps_per_s r.shuffled_sweeps_per_ref r.shuffled_alloc_bytes_per_sweep r.init_s
        r.init_alloc_bytes_per_event r.parse_alloc_bytes_per_event
        r.store_alloc_bytes_per_event r.guess_alloc_bytes_per_event
        r.repair_alloc_bytes_per_event r.pauses_recorded
        (jnum r.pause_minor.Prof.p99_s)
        (jnum r.pause_major.Prof.p99_s))
    results;
  Printf.printf "  stem iterations     %10.1f /s (%.3f per reference)\n" stem_iterations
    stem_iterations_per_ref;
  Printf.printf "  piecewise draws     %10.1f /s (%.3f per reference)\n" piecewise_draws
    piecewise_draws_per_ref;
  Printf.printf "  10k csv parses      %10.1f /s (%.3f per reference)\n" csv_parses
    csv_parses_per_ref;
  Printf.printf "-> %s\n" out

let benchmark () =
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |] in
  let instances = Instance.[ minor_allocated; monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg instances tests in
  let results = List.map (fun instance -> Analyze.all ols instance raw) instances in
  Analyze.merge ols instances results

let () =
  (match Array.to_list Sys.argv with
  | _ :: "--core-json" :: rest ->
      let rec parse path sizes = function
        | [] -> (path, sizes)
        | "--sizes" :: spec :: rest ->
            parse path (Some (String.split_on_char ',' spec)) rest
        | arg :: rest -> parse arg sizes rest
      in
      let path, sizes = parse "BENCH_core.json" None rest in
      core_json ~sizes path;
      exit 0
  | _ -> ());
  Bechamel_notty.Unit.add Instance.monotonic_clock "ns";
  Bechamel_notty.Unit.add Instance.minor_allocated "w";
  let results = benchmark () in
  let window = { Bechamel_notty.w = 100; h = 1 } in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window ~predictor:Measure.run
      results
  in
  Notty_unix.output_image Notty.I.(img <-> void 0 1);
  (* ---------------------------------------------------------------- *)
  (* part 2: the experiment harness at quick scale — the same
     rows/series as the paper's tables and figures *)
  print_newline ();
  E.Fig4.print_report (E.Fig4.run E.Fig4.quick_config);
  E.Baseline.print_report (E.Baseline.run E.Baseline.quick_config);
  E.Fig5.print_report (E.Fig5.run E.Fig5.quick_config);
  E.Ablate.print_init_report (E.Ablate.run_init_ablation ~num_tasks:200 ~max_sweeps:150 ());
  E.Ablate.print_em_report (E.Ablate.run_em_ablation ~num_tasks:200 ());
  E.Misspec.print_report (E.Misspec.run ~num_tasks:300 ~stem_iterations:100 ());
  E.Routes.print_report (E.Routes.run ~num_tasks:300 ~stem_iterations:120 ());
  E.General_service.print_report (E.General_service.run ~num_tasks:300 ~stem_iterations:120 ());
  E.Online.print_report (E.Online.run ~num_requests:1200 ~num_windows:4 ())
