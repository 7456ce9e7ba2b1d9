(* Tests for the fault-tolerant runtime: checkpoint codec and
   atomicity, kill/resume bit-identity, health checking, rollback
   recovery, budgets, fault-injected lenient ingestion, and the
   numeric guards the runtime relies on (Gibbs compile, Welford). *)

module Rng = Qnet_prob.Rng
module Piecewise = Qnet_prob.Piecewise
module Statistics = Qnet_prob.Statistics
module Trace = Qnet_trace.Trace
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Stem = Qnet_core.Stem
module Gibbs = Qnet_core.Gibbs
module Obs = Qnet_core.Observation
module Topologies = Qnet_des.Topologies
module Checkpoint = Qnet_runtime.Checkpoint
module Health = Qnet_runtime.Health
module Fault = Qnet_runtime.Fault
module Runtime = Qnet_runtime.Runtime

let tandem_net () = Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 15.0; 12.0 ]

(* A reproducible masked store: same seeds, same store, every call. *)
let fresh_store ?(sim_seed = 41) ?(tasks = 120) () =
  let rng = Rng.create ~seed:sim_seed () in
  Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.3) rng (tandem_net ()) tasks

let check_bits name a b =
  Alcotest.(check int64) name (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_params name a b =
  Alcotest.(check int) (name ^ " dims") (Params.num_queues a) (Params.num_queues b);
  for q = 0 to Params.num_queues a - 1 do
    check_bits (Printf.sprintf "%s rate q%d" name q) (Params.rate a q) (Params.rate b q)
  done

let runtime_config ?(checkpoint_path = None) ?(checkpoint_every = 8)
    ?(validate_every = 6) ?(max_retries = 3) ?max_seconds ~iterations () =
  {
    Runtime.stem =
      { Stem.default_config with Stem.iterations; burn_in = Stdlib.min 8 (iterations / 2) };
    checkpoint_every;
    checkpoint_path;
    validate_every;
    max_retries;
    max_seconds;
  }

(* Poison one unobserved latent. Event_store.set_departure refuses
   NaN, so go through snapshot/restore like real memory corruption
   would: no API politely asks permission. *)
let poison_store store =
  let s = Store.snapshot store in
  let u = Store.unobserved_events store in
  s.Store.s_departure.(u.(Array.length u / 2)) <- nan;
  Store.restore store s

(* ------------------------------------------------------------------ *)
(* Checkpoint codec *)

let make_checkpoint () =
  let _, _, store = fresh_store () in
  let rng = Rng.create ~seed:7 () in
  let p0 = Stem.initial_guess store in
  let p1 = Params.create ~rates:[| 9.5; 14.2; 11.9 |] ~arrival_queue:0 in
  {
    Checkpoint.iteration = 2;
    rng_state = Rng.state rng;
    params = p1;
    anchor = p0;
    snapshot = Store.snapshot store;
    history = [| p0; p1 |];
    llh = [| -1.5; -1.25 |];
  }

let test_codec_round_trip () =
  let ck = make_checkpoint () in
  match Checkpoint.of_bytes (Checkpoint.to_bytes ck) with
  | Error m -> Alcotest.failf "decode failed: %s" m
  | Ok ck' ->
      Alcotest.(check int) "iteration" ck.Checkpoint.iteration ck'.Checkpoint.iteration;
      Alcotest.(check (array int64)) "rng state" ck.Checkpoint.rng_state
        ck'.Checkpoint.rng_state;
      check_params "params" ck.Checkpoint.params ck'.Checkpoint.params;
      check_params "anchor" ck.Checkpoint.anchor ck'.Checkpoint.anchor;
      let s = ck.Checkpoint.snapshot and s' = ck'.Checkpoint.snapshot in
      Alcotest.(check int) "snapshot size" (Array.length s.Store.s_departure)
        (Array.length s'.Store.s_departure);
      Array.iteri
        (fun i d -> check_bits (Printf.sprintf "departure %d" i) d s'.Store.s_departure.(i))
        s.Store.s_departure;
      Alcotest.(check (array int)) "rho" s.Store.s_rho s'.Store.s_rho;
      Alcotest.(check (array int)) "rho_inv" s.Store.s_rho_inv s'.Store.s_rho_inv;
      Alcotest.(check (array int)) "queue" s.Store.s_queue s'.Store.s_queue;
      Alcotest.(check (array int)) "heads" s.Store.s_heads s'.Store.s_heads;
      Alcotest.(check int) "history" 2 (Array.length ck'.Checkpoint.history);
      check_params "history.0" ck.Checkpoint.history.(0) ck'.Checkpoint.history.(0);
      check_bits "llh.1" ck.Checkpoint.llh.(1) ck'.Checkpoint.llh.(1)

let test_codec_rejects_corruption () =
  let ck = make_checkpoint () in
  let good = Checkpoint.to_bytes ck in
  let expect_error what bytes =
    match Checkpoint.of_bytes bytes with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" what
  in
  (* single flipped byte in the middle of the payload *)
  let flipped = Bytes.of_string good in
  let mid = Bytes.length flipped / 2 in
  Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 0xFF));
  expect_error "bit flip" (Bytes.to_string flipped);
  expect_error "truncation" (String.sub good 0 (String.length good / 2));
  expect_error "empty" "";
  let bad_magic = Bytes.of_string good in
  Bytes.set bad_magic 0 'X';
  expect_error "bad magic" (Bytes.to_string bad_magic)

(* Patch the version word of an encoded checkpoint and recompute the
   trailing FNV-1a checksum, so the reader's version check — not the
   checksum — must reject it. *)
let patch_version delta good =
  let payload = Bytes.of_string (String.sub good 0 (String.length good - 8)) in
  let v = Bytes.get_int64_le payload 8 in
  Bytes.set_int64_le payload 8 (Int64.add v (Int64.of_int delta));
  let h = ref 0xCBF29CE484222325L in
  Bytes.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001B3L)
    payload;
  let out = Buffer.create (String.length good) in
  Buffer.add_bytes out payload;
  Buffer.add_int64_le out !h;
  Buffer.contents out

let test_codec_rejects_future_version () =
  let good = Checkpoint.to_bytes (make_checkpoint ()) in
  match Checkpoint.of_bytes (patch_version 1 good) with
  | Error m ->
      let mentions_version =
        let nh = String.length m and needle = "version" in
        let nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub m i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "error names the version" true mentions_version
  | Ok _ -> Alcotest.fail "checkpoint from the future accepted"

let test_load_truncated_file () =
  let ck = make_checkpoint () in
  let path = Filename.temp_file "qnet_test_trunc" ".ckpt" in
  Checkpoint.save ~path ck;
  let full = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun keep ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (String.sub full 0 keep));
      match Checkpoint.load ~path with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "file truncated to %d bytes accepted" keep)
    [ 0; 4; String.length full / 3; String.length full - 1 ];
  Sys.remove path

(* Decoding must be total: garbage and mutated checkpoints produce
   [Error], never an exception (or worse). *)
let test_codec_never_raises () =
  let rng = Rng.create ~seed:99 () in
  let good = Checkpoint.to_bytes (make_checkpoint ()) in
  for _ = 1 to 200 do
    let len = Rng.int rng 200 in
    let garbage = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
    (match Checkpoint.of_bytes garbage with Ok _ | Error _ -> ());
    let mutated = Bytes.of_string good in
    let pos = Rng.int rng (Bytes.length mutated) in
    Bytes.set mutated pos (Char.chr (Rng.int rng 256));
    match Checkpoint.of_bytes (Bytes.to_string mutated) with
    | Ok _ | Error _ -> ()
  done

let test_save_load_file () =
  let ck = make_checkpoint () in
  let path = Filename.temp_file "qnet_test" ".ckpt" in
  Checkpoint.save ~path ck;
  (match Checkpoint.load ~path with
  | Error m -> Alcotest.failf "load failed: %s" m
  | Ok ck' ->
      Alcotest.(check int) "iteration survives disk" ck.Checkpoint.iteration
        ck'.Checkpoint.iteration;
      Alcotest.(check (array int64)) "rng survives disk" ck.Checkpoint.rng_state
        ck'.Checkpoint.rng_state);
  Alcotest.(check bool) "no tmp file left" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path;
  match Checkpoint.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "load of missing file must be Error"

(* ------------------------------------------------------------------ *)
(* Kill / resume bit-identity *)

let test_kill_resume_bit_identical () =
  let iters = 24 and kill_at = 16 in
  let ckpt = Filename.temp_file "qnet_test_resume" ".ckpt" in
  let ckpt2 = Filename.temp_file "qnet_test_resume2" ".ckpt" in
  (* Run A: uninterrupted. *)
  let _, _, store_a = fresh_store () in
  let full =
    Runtime.run
      ~config:(runtime_config ~iterations:iters ())
      (Rng.create ~seed:99 ()) store_a
  in
  (* Run B: killed at [kill_at] (simulated by configuring a shorter
     run; the checkpoint written at iteration 16 is exactly what a
     SIGKILL at that point would leave behind)... *)
  let _, _, store_b = fresh_store () in
  let _ =
    Runtime.run
      ~config:(runtime_config ~iterations:kill_at ~checkpoint_path:(Some ckpt) ())
      (Rng.create ~seed:99 ()) store_b
  in
  (* ...then resumed in a fresh process: new store, new RNG (both are
     overwritten wholesale from the checkpoint). *)
  let _, _, store_c = fresh_store () in
  let resumed =
    match
      Runtime.resume_file
        ~config:(runtime_config ~iterations:iters ~checkpoint_path:(Some ckpt2) ())
        ~path:ckpt
        (Rng.create ~seed:31337 ())
        store_c
    with
    | Error m -> Alcotest.failf "resume failed: %s" m
    | Ok r -> r
  in
  Alcotest.(check (option int))
    "resumed at the kill point" (Some kill_at) resumed.Runtime.report.Runtime.resumed_at;
  (* latent state: every departure bit-identical *)
  let da = (Store.snapshot store_a).Store.s_departure in
  let dc = (Store.snapshot store_c).Store.s_departure in
  Alcotest.(check int) "event count" (Array.length da) (Array.length dc);
  Array.iteri (fun i d -> check_bits (Printf.sprintf "latent %d" i) d dc.(i)) da;
  (* parameters and posterior summaries *)
  check_params "final iterate" full.Runtime.params_last resumed.Runtime.params_last;
  check_params "posterior mean" full.Runtime.params resumed.Runtime.params;
  Alcotest.(check int) "history length" iters (Array.length resumed.Runtime.history);
  Array.iteri
    (fun i p -> check_params (Printf.sprintf "history %d" i) p resumed.Runtime.history.(i))
    full.Runtime.history;
  Array.iteri
    (fun q s -> check_bits (Printf.sprintf "mean service q%d" q) s resumed.Runtime.mean_service.(q))
    full.Runtime.mean_service;
  Array.iteri
    (fun i l -> check_bits (Printf.sprintf "llh %d" i) l resumed.Runtime.log_likelihood_history.(i))
    full.Runtime.log_likelihood_history;
  Sys.remove ckpt;
  if Sys.file_exists ckpt2 then Sys.remove ckpt2

let test_resume_rejects_wrong_store () =
  let ckpt = Filename.temp_file "qnet_test_mismatch" ".ckpt" in
  let _, _, store = fresh_store () in
  let _ =
    Runtime.run
      ~config:(runtime_config ~iterations:8 ~checkpoint_path:(Some ckpt) ())
      (Rng.create ~seed:5 ()) store
  in
  let _, _, other = fresh_store ~tasks:60 () in
  (match
     Runtime.resume_file
       ~config:(runtime_config ~iterations:8 ())
       ~path:ckpt (Rng.create ()) other
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "checkpoint for a different store must be rejected");
  Sys.remove ckpt

(* ------------------------------------------------------------------ *)
(* Goldens: the bits of whole seeded runs, committed before Stem.run,
   Runtime and Supervisor shared one StEM step, in plain,
   metrics-enabled and profiled mode. *)

let runtime_digest store rng (r : Runtime.result) =
  Net_helpers.stem_digest ~history:r.Runtime.history ~llh:r.Runtime.log_likelihood_history
    ~mean_service:r.Runtime.mean_service ~params_last:r.Runtime.params_last store rng

let test_golden_clean_run () =
  Net_helpers.check_modes "clean Runtime.run"
    "6479c6da2e635e23c5810813e297ab2a" (fun () ->
      let _, _, store = fresh_store () in
      let rng = Rng.create ~seed:99 () in
      let r = Runtime.run ~config:(runtime_config ~iterations:24 ()) rng store in
      Alcotest.(check bool) "completed" true (r.Runtime.status = Runtime.Completed);
      runtime_digest store rng r)

(* One poisoned latent at iteration 9: the health check at iteration 10
   rolls the run back to the checkpoint at 5, re-jitters and goes on. *)
let test_golden_rollback_run () =
  Net_helpers.check_modes "Runtime.run with one rollback"
    "retries=1 done=20 | 9: 2 violations: nan-latent(165), nonfinite-log-likelihood(nan) \
     | 69d2f2857bffc9571af91c5b98c12d8d" (fun () ->
      let _, _, store = fresh_store () in
      let rng = Rng.create ~seed:11 () in
      let fired = ref false in
      let chaos it store =
        if it = 9 && not !fired then begin
          fired := true;
          poison_store store
        end
      in
      let r =
        Runtime.run
          ~config:(runtime_config ~iterations:20 ~checkpoint_every:5 ~validate_every:5 ())
          ~chaos rng store
      in
      let rep = r.Runtime.report in
      String.concat " | "
        (Printf.sprintf "retries=%d done=%d" rep.Runtime.retries rep.Runtime.iterations_done
        :: List.map
             (fun i -> Printf.sprintf "%d: %s" i.Runtime.at_iteration i.Runtime.cause)
             rep.Runtime.incidents
        @ [ runtime_digest store rng r ]))

(* With no incident, the runtime's checkpoints and health checks
   consume no draws: its run is Stem.run's, bit for bit. *)
let test_runtime_equals_stem () =
  let stem_config = { Stem.default_config with Stem.iterations = 40; burn_in = 20 } in
  let store () =
    let net =
      Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 ()
    in
    let _, _, store =
      Net_helpers.masked_store ~scheme:(Obs.Task_fraction 0.1) (Rng.create ~seed:77 ()) net
        250
    in
    store
  in
  List.iter
    (fun (mode_name, mode) ->
      Net_helpers.with_mode mode (fun () ->
          let store_s = store () and rng_s = Rng.create ~seed:78 () in
          let s = Stem.run ~config:stem_config rng_s store_s in
          let store_r = store () and rng_r = Rng.create ~seed:78 () in
          let r =
            Runtime.run
              ~config:{ Runtime.default_config with Runtime.stem = stem_config; checkpoint_every = 8; validate_every = 6 }
              rng_r store_r
          in
          Alcotest.(check int) (mode_name ^ ": no retries") 0 r.Runtime.report.Runtime.retries;
          check_params (mode_name ^ ": averaged params") s.Stem.params r.Runtime.params;
          Alcotest.(check string) (mode_name ^ ": run bits")
            (Net_helpers.stem_digest ~history:s.Stem.history ~llh:s.Stem.log_likelihood_history
               ~mean_service:s.Stem.mean_service ~params_last:s.Stem.params_last store_s rng_s)
            (runtime_digest store_r rng_r r)))
    Net_helpers.modes

(* With metrics on, the runtime feeds each committed iterate to the
   diagnostics hub it is given, as Stem.run does, and none without
   one. *)
let test_runtime_feeds_diagnostics () =
  let module D = Qnet_obs.Diagnostics in
  Net_helpers.with_mode `Metrics (fun () ->
      let _, _, store = fresh_store () in
      ignore
        (Runtime.run ~config:(runtime_config ~iterations:24 ()) (Rng.create ~seed:99 ()) store
          : Runtime.result);
      Alcotest.(check int) "no hub, nothing observed" 0
        (D.snapshot D.default).D.iterations_total;
      let _, _, store = fresh_store () in
      let r =
        Runtime.run ~config:(runtime_config ~iterations:24 ()) ~diagnostics:D.default
          (Rng.create ~seed:99 ()) store
      in
      let s = D.snapshot D.default in
      Alcotest.(check int) "iterations observed" r.Runtime.report.Runtime.iterations_done
        s.D.iterations_total;
      Alcotest.(check (list (pair int int))) "one chain, every iteration" [ (0, 24) ]
        (Array.to_list (Array.map (fun c -> (c.D.chain, c.D.iterations)) s.D.chains));
      Alcotest.(check int) "queues" 3 (Array.length s.D.queues))

(* ------------------------------------------------------------------ *)
(* Health checking *)

let test_health_clean () =
  let _, _, store = fresh_store () in
  let p = Stem.initial_guess store in
  Alcotest.(check int) "no violations on a fresh store" 0
    (List.length (Health.check store p))

let test_health_detects_nan_latent () =
  let _, _, store = fresh_store () in
  let p = Stem.initial_guess store in
  poison_store store;
  let vs = Health.check store p in
  Alcotest.(check bool) "violations found" true (vs <> []);
  Alcotest.(check bool) "includes nan-latent" true
    (List.exists (function Health.Nan_latent _ -> true | _ -> false) vs);
  Alcotest.(check bool) "describe is non-empty" true
    (String.length (Health.describe vs) > 0)

let test_health_detects_degenerate_rate () =
  let _, _, store = fresh_store () in
  (* Params.create refuses non-positive rates outright, so the
     reachable collapse mode is the runaway MLE: rates beyond any
     physical service time. *)
  let bad = Params.create ~rates:[| 10.0; 1e13; 1e15 |] ~arrival_queue:0 in
  let vs = Health.check store bad in
  let degen = List.filter (function Health.Degenerate_rate _ -> true | _ -> false) vs in
  Alcotest.(check int) "both degenerate rates flagged" 2 (List.length degen)

(* ------------------------------------------------------------------ *)
(* Recovery, abort, budget *)

let test_recovers_from_one_fault () =
  let _, _, store = fresh_store () in
  let fired = ref false in
  let chaos it store =
    if it = 9 && not !fired then begin
      fired := true;
      poison_store store
    end
  in
  let r =
    Runtime.run
      ~config:(runtime_config ~iterations:20 ~checkpoint_every:5 ~validate_every:5 ())
      ~chaos (Rng.create ~seed:11 ()) store
  in
  Alcotest.(check bool) "completed" true (r.Runtime.status = Runtime.Completed);
  Alcotest.(check int) "all iterations done" 20 r.Runtime.report.Runtime.iterations_done;
  Alcotest.(check int) "one retry" 1 r.Runtime.report.Runtime.retries;
  Alcotest.(check int) "one incident" 1 (List.length r.Runtime.report.Runtime.incidents);
  (* the run recovered into a healthy state *)
  Alcotest.(check int) "final state healthy" 0
    (List.length (Health.check store r.Runtime.params_last));
  Array.iter
    (fun s -> Alcotest.(check bool) "finite estimate" true (Float.is_finite s))
    r.Runtime.mean_service

let test_aborts_after_max_retries () =
  let _, _, store = fresh_store () in
  let chaos _ store = poison_store store in
  let r =
    Runtime.run
      ~config:
        (runtime_config ~iterations:20 ~checkpoint_every:5 ~validate_every:1
           ~max_retries:2 ())
      ~chaos (Rng.create ~seed:12 ()) store
  in
  (match r.Runtime.status with
  | Runtime.Aborted _ -> ()
  | _ -> Alcotest.fail "persistent faults must abort");
  Alcotest.(check int) "retries exhausted" 2 r.Runtime.report.Runtime.retries;
  Alcotest.(check int) "every attempt recorded" 3
    (List.length r.Runtime.report.Runtime.incidents);
  Alcotest.(check bool) "partial run" true
    (r.Runtime.report.Runtime.iterations_done < 20)

let test_budget_exhaustion () =
  let _, _, store = fresh_store () in
  let r =
    Runtime.run
      ~config:(runtime_config ~iterations:500 ~max_seconds:0.0 ())
      (Rng.create ~seed:13 ()) store
  in
  Alcotest.(check bool) "budget status" true
    (r.Runtime.status = Runtime.Budget_exhausted);
  Alcotest.(check bool) "stopped early with partial results" true
    (r.Runtime.report.Runtime.iterations_done >= 1
    && r.Runtime.report.Runtime.iterations_done < 500);
  Array.iter
    (fun s -> Alcotest.(check bool) "partial estimate finite" true (Float.is_finite s))
    r.Runtime.mean_service

(* ------------------------------------------------------------------ *)
(* Fault injection + lenient ingestion *)

let test_lenient_survives_injected_faults () =
  let rng = Rng.create ~seed:21 () in
  let trace = Net_helpers.simulate_n rng (tandem_net ()) 80 in
  let csv = Trace.to_csv trace in
  let corrupted, applied = Fault.inject (Rng.create ~seed:22 ()) csv in
  Alcotest.(check int) "every mode applied" (List.length Fault.all_modes)
    (List.length applied);
  List.iter
    (fun (m, n) ->
      Alcotest.(check bool) (Fault.mode_label m ^ " applied at least once") true (n > 0))
    applied;
  (* strict ingestion must still refuse the file *)
  (match Trace.of_csv ~num_queues:3 corrupted with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict parser accepted a corrupted trace");
  (* lenient ingestion returns survivors plus a structured report *)
  match Trace.of_csv_lenient ~num_queues:3 corrupted with
  | Error _ -> Alcotest.fail "lenient ingestion lost every event"
  | Ok (t, report) ->
      Alcotest.(check bool) "errors reported" true (report.Trace.errors <> []);
      let distinct =
        List.sort_uniq compare
          (List.map (fun e -> e.Trace.reason) report.Trace.errors)
      in
      Alcotest.(check bool)
        (Printf.sprintf "≥4 distinct corruption kinds (got %d)" (List.length distinct))
        true
        (List.length distinct >= 4);
      Alcotest.(check bool) "events survive" true (report.Trace.events_kept > 0);
      Alcotest.(check int) "kept matches trace" report.Trace.events_kept
        (Array.length t.Trace.events);
      Alcotest.(check bool) "drops accounted" true (report.Trace.events_dropped > 0);
      let s = Format.asprintf "%a" Trace.pp_ingest_report report in
      Alcotest.(check bool) "report printer" true (String.length s > 0);
      (* survivors support inference end to end *)
      let store = Store.of_trace t in
      (match Store.validate store with
      | Ok () -> ()
      | Error m -> Alcotest.failf "survivors violate model constraints: %s" m);
      let rng = Rng.create ~seed:23 () in
      let mask = Obs.mask rng (Obs.Task_fraction 0.5) t in
      let store = Store.of_trace ~observed:mask t in
      let result =
        Stem.run
          ~config:{ Stem.default_config with Stem.iterations = 5; burn_in = 2 }
          rng store
      in
      Array.iter
        (fun s ->
          Alcotest.(check bool) "inference on survivors finite" true
            (Float.is_finite s && s > 0.0))
        result.Stem.mean_service

(* The same fixture's whole report, pinned: every error in order
   (newest first, as [ingest_report] keeps them), the four counts, and
   the bits of the surviving events. *)
let golden_report_errors =
  [
    (None, Some 66, "missing-initial", "first event arrives at 8.48033, not 0");
    (None, Some 29, "missing-initial", "first event arrives at 3.11181, not 0");
    (None, Some 50, "broken-chain", "arrival 5.40722 disagrees with predecessor departure 5.33986; dropping the task's remaining events");
    (None, Some 77, "broken-chain", "arrival 8.8438 disagrees with predecessor departure 8.82728; dropping the task's remaining events");
    (None, Some 59, "missing-initial", "first event arrives at 6.56927, not 0");
    (None, Some 47, "broken-chain", "arrival 4.82004 disagrees with predecessor departure 4.66227; dropping the task's remaining events");
    (None, Some 19, "missing-initial", "first event arrives at 2.12789, not 0");
    (None, Some 58, "missing-initial", "first event arrives at 6.38977, not 0");
    (None, Some 37, "broken-chain", "arrival 4.06385 disagrees with predecessor departure 4.04997; dropping the task's remaining events");
    (None, Some 57, "broken-chain", "arrival 6.32273 disagrees with predecessor departure 6.14516; dropping the task's remaining events");
    (None, Some 74, "broken-chain", "arrival 8.41436 disagrees with predecessor departure 8.37398; dropping the task's remaining events");
    (None, Some 0, "broken-chain", "arrival 0.194776 disagrees with predecessor departure 0.182362; dropping the task's remaining events");
    (None, Some 12, "broken-chain", "arrival 2.3329 disagrees with predecessor departure 1.95379; dropping the task's remaining events");
    (None, Some 24, "broken-chain", "arrival 2.70905 disagrees with predecessor departure 2.64911; dropping the task's remaining events");
    (None, Some 42, "broken-chain", "arrival 4.55519 disagrees with predecessor departure 4.41012; dropping the task's remaining events");
    (None, Some 71, "broken-chain", "arrival 8.03176 disagrees with predecessor departure 7.91105; dropping the task's remaining events");
    (None, Some 27, "broken-chain", "arrival 4.04416 disagrees with predecessor departure 2.9496; dropping the task's remaining events");
    (None, Some 20, "broken-chain", "arrival 2.25364 disagrees with predecessor departure 2.25116; dropping the task's remaining events");
    (None, Some 67, "broken-chain", "arrival 7.73618 disagrees with predecessor departure 7.61608; dropping the task's remaining events");
    (None, Some 65, "broken-chain", "arrival 7.51498 disagrees with predecessor departure 7.46875; dropping the task's remaining events");
    (Some 207, Some 16, "duplicate-event", "exact duplicate record");
    (Some 188, Some 47, "duplicate-event", "exact duplicate record");
    (Some 174, Some 2, "duplicate-event", "exact duplicate record");
    (Some 154, Some 45, "duplicate-event", "exact duplicate record");
    (Some 66, Some 46, "duplicate-event", "exact duplicate record");
    (Some 17, Some 49, "duplicate-event", "exact duplicate record");
    (Some 216, Some 23, "nan-field", "NaN arrival or departure");
    (Some 198, None, "malformed-line", "expected 5 comma-separated fields, got 2");
    (Some 189, None, "malformed-line", "expected 5 comma-separated fields, got 2");
    (Some 186, Some 76, "out-of-order", "departure 8.57443 before arrival 8.99386");
    (Some 185, Some 42, "out-of-order", "departure 4.41012 before arrival 4.55519");
    (Some 181, Some 19, "nan-field", "NaN arrival or departure");
    (Some 176, Some 20, "out-of-order", "departure 2.25116 before arrival 2.25364");
    (Some 173, None, "malformed-line", "expected 5 comma-separated fields, got 2");
    (Some 152, Some 77, "nan-field", "NaN arrival or departure");
    (Some 125, Some 75, "out-of-order", "departure 8.43935 before arrival 8.46777");
    (Some 111, None, "malformed-line", "expected 5 comma-separated fields, got 1");
    (Some 103, None, "malformed-line", "expected 5 comma-separated fields, got 3");
    (Some 97, None, "malformed-line", "expected 5 comma-separated fields, got 4");
    (Some 89, None, "malformed-line", "expected 5 comma-separated fields, got 2");
    (Some 76, Some 72, "out-of-order", "departure 8.66443 before arrival 8.7635");
    (Some 74, Some 57, "out-of-order", "departure 6.14516 before arrival 6.32273");
    (Some 72, Some 1, "nan-field", "NaN arrival or departure");
    (Some 62, None, "malformed-line", "expected 5 comma-separated fields, got 3");
    (Some 58, Some 22, "nan-field", "NaN arrival or departure");
    (Some 50, Some 60, "out-of-order", "departure 6.77804 before arrival 6.84417");
    (Some 47, Some 68, "nan-field", "NaN arrival or departure");
    (Some 46, Some 6, "out-of-order", "departure 0.934391 before arrival 1.00998");
    (Some 29, None, "malformed-line", "expected 5 comma-separated fields, got 2");
    (Some 26, Some 37, "nan-field", "NaN arrival or departure");
    (Some 24, Some 67, "nan-field", "NaN arrival or departure");
    (Some 6, Some 58, "nan-field", "NaN arrival or departure");
    (Some 2, Some 24, "out-of-order", "departure 2.64911 before arrival 2.70905");
  ]

let test_lenient_golden_report () =
  let trace = Net_helpers.simulate_n (Rng.create ~seed:21 ()) (tandem_net ()) 80 in
  let corrupted, _ = Fault.inject (Rng.create ~seed:22 ()) (Trace.to_csv trace) in
  match Trace.of_csv_lenient ~num_queues:3 corrupted with
  | Error _ -> Alcotest.fail "lenient ingestion lost every event"
  | Ok (t, r) ->
      let render (line, task, label, detail) =
        let opt = function Some k -> string_of_int k | None -> "-" in
        Printf.sprintf "%s %s [%s] %s" (opt line) (opt task) label detail
      in
      Alcotest.(check (list string)) "errors"
        (List.map render golden_report_errors)
        (List.map
           (fun e ->
             render
               ( e.Trace.line,
                 e.Trace.task_id,
                 Trace.corruption_label e.Trace.reason,
                 e.Trace.detail ))
           r.Trace.errors);
      Alcotest.(check (list int)) "lines read, kept, dropped, tasks dropped" [ 250; 188; 61; 5 ]
        [ r.Trace.lines_read; r.Trace.events_kept; r.Trace.events_dropped; r.Trace.tasks_dropped ];
      let b = Buffer.create 4096 in
      Array.iter
        (fun e ->
          Printf.bprintf b "%d,%d,%d,%Ld,%Ld;" e.Trace.task e.Trace.state e.Trace.queue
            (Int64.bits_of_float e.Trace.arrival) (Int64.bits_of_float e.Trace.departure))
        t.Trace.events;
      Alcotest.(check (pair int string)) "kept events" (75, "7229143553594979ace84932503587ba")
        (t.Trace.num_tasks, Digest.to_hex (Digest.string (Buffer.contents b)))

let test_lenient_clean_trace_no_errors () =
  let rng = Rng.create ~seed:24 () in
  let trace = Net_helpers.simulate_n rng (tandem_net ()) 40 in
  match Trace.of_csv_lenient ~num_queues:3 (Trace.to_csv trace) with
  | Error _ -> Alcotest.fail "clean trace must parse"
  | Ok (t, report) ->
      Alcotest.(check (list reject)) "no errors" []
        (List.map (fun _ -> ()) report.Trace.errors);
      Alcotest.(check int) "all events kept" (Array.length trace.Trace.events)
        (Array.length t.Trace.events)

(* ------------------------------------------------------------------ *)
(* Gibbs compile guards (degenerate windows never raise / emit NaN) *)

let mk ?(lower = 0.0) ?upper ?(linear = 0.0) ?(hinges = []) () =
  { Gibbs.event = 0; lower; upper; linear; hinges }

let test_compile_degenerate_windows () =
  let point what ld expected =
    match Gibbs.compile ld with
    | `Point x -> check_bits what expected x
    | _ -> Alcotest.failf "%s: expected `Point" what
  in
  point "zero width" (mk ~lower:2.0 ~upper:2.0 ()) 2.0;
  point "negative width" (mk ~lower:3.0 ~upper:1.0 ()) 3.0;
  point "width below resolution" (mk ~lower:1.0 ~upper:(1.0 +. 1e-15) ()) 1.0;
  point "nan lower, finite upper" (mk ~lower:nan ~upper:4.0 ()) 4.0;
  point "infinite upper" (mk ~lower:1.5 ~upper:infinity ()) 1.5;
  point "tail with non-contracting slope" (mk ~lower:1.0 ~linear:1.0 ()) 1.0;
  point "tail with nan slope" (mk ~lower:1.0 ~linear:nan ()) 1.0;
  match Gibbs.compile (mk ~lower:1.0 ~linear:(-2.0) ()) with
  | `Tail (origin, rate) ->
      check_bits "tail origin" 1.0 origin;
      check_bits "tail rate" 2.0 rate
  | _ -> Alcotest.fail "healthy tail must stay a tail"

let test_compile_filters_nan_hinges () =
  let ld =
    mk ~lower:0.0 ~upper:1.0 ~linear:(-0.5)
      ~hinges:
        [
          { Piecewise.knee = nan; slope = 5.0 };
          { Piecewise.knee = 0.5; slope = infinity };
          { Piecewise.knee = 0.5; slope = -1.0 };
        ]
      ()
  in
  match Gibbs.compile ld with
  | `Bounded pw ->
      let rng = Rng.create ~seed:25 () in
      for _ = 1 to 100 do
        let x = Piecewise.sample rng pw in
        Alcotest.(check bool) "sample finite and in window" true
          (Float.is_finite x && x >= 0.0 && x <= 1.0)
      done
  | _ -> Alcotest.fail "finite window with salvageable hinges must stay bounded"

(* The same guards through the production kernel: hand-built stores
   whose latent event sees each degenerate or corrupted window, drawn by
   Gibbs.sample_event and held bit-equal to the reference from a copied
   generator. *)

let ev task state queue arrival departure = { Trace.task; state; queue; arrival; departure }

(* Three tasks through q0 -> q1 -> q2. Event 1 (task 0 at q1) is the
   only latent one: window [1, 3], a within-queue successor (event 4,
   knee 1.5) and a consumer queued behind event 8 (knee 1.9), so three
   pieces when healthy. *)
let window_store () =
  let trace =
    Trace.create ~num_queues:3
      [
        ev 0 0 0 0.0 1.0; ev 0 1 1 1.0 2.0; ev 0 2 2 2.0 4.0;
        ev 1 0 0 0.0 1.5; ev 1 1 1 1.5 3.0; ev 1 2 2 3.0 5.0;
        ev 2 0 0 0.0 0.5; ev 2 1 1 0.5 0.8; ev 2 2 2 0.8 1.9;
      ]
  in
  Store.of_trace ~observed:(Array.init 9 (fun i -> i <> 1)) trace

(* One task, q0 -> q1, the q1 departure latent: an exponential tail. *)
let tail_store () =
  Store.of_trace ~observed:[| true; false |]
    (Trace.create ~num_queues:2 [ ev 0 0 0 0.0 1.0; ev 0 1 1 1.0 2.0 ])

let set_departures store updates =
  let s = Store.snapshot store in
  List.iter (fun (i, d) -> s.Store.s_departure.(i) <- d) updates;
  Store.restore store s

(* Both draws for the store's one latent event; fails unless they agree
   bit for bit and consume the same draws. *)
let kernel_draw what store params =
  let f = (Store.unobserved_events store).(0) in
  let rng = Rng.create ~seed:27 () in
  let r_ref = Rng.copy rng in
  let expected =
    Gibbs.sample_compiled r_ref (Gibbs.compile (Gibbs.local_density store params f))
  in
  let got = Gibbs.sample_event rng store params f in
  check_bits (what ^ ": kernel = reference") expected got;
  Alcotest.(check (array int64)) (what ^ ": same draws") (Rng.state r_ref) (Rng.state rng);
  got

let test_kernel_degenerate_windows () =
  let params = Params.create ~rates:[| 1.0; 2.0; 3.0 |] ~arrival_queue:0 in
  let point what updates expected =
    let store = window_store () in
    set_departures store updates;
    check_bits what expected (kernel_draw what store params)
  in
  point "zero width" [ (0, 3.0) ] 3.0;
  point "negative width" [ (0, 3.5) ] 3.5;
  point "width below resolution" [ (0, 3.0 -. 1e-13) ] (3.0 -. 1e-13);
  point "nan lower, finite upper" [ (0, nan) ] 3.0;
  point "infinite upper" [ (2, infinity); (4, infinity) ] 1.0;
  let store = window_store () in
  (match Gibbs.compile (Gibbs.local_density store params 1) with
  | `Bounded pw ->
      Alcotest.(check int) "healthy window has three pieces" 3
        (List.length (Piecewise.pieces pw))
  | _ -> Alcotest.fail "healthy window must stay bounded");
  let healthy = kernel_draw "three pieces" store params in
  Alcotest.(check bool) "three pieces: inside [1, 3]" true (healthy >= 1.0 && healthy <= 3.0);
  (* rates outside Params.create's checks reach the tail case only
     through corrupted state; build them as records *)
  let tail what rates = kernel_draw what (tail_store ()) { Params.rates; arrival_queue = 0 } in
  check_bits "tail with non-contracting slope" 1.0 (tail "non-contracting" [| 1.0; -1.0 |]);
  check_bits "tail with nan slope" 1.0 (tail "nan slope" [| 1.0; nan |]);
  let x = tail "healthy tail" [| 1.0; 2.0 |] in
  Alcotest.(check bool) "healthy tail draws past its origin" true (x > 1.0 && Float.is_finite x);
  (* a window NaN at both ends collapses to NaN, which the write-back
     refuses exactly as Event_store.set_departure does *)
  let store = window_store () in
  set_departures store [ (0, nan); (2, nan); (4, nan) ];
  Alcotest.(check bool) "nan window draws nan" true
    (Float.is_nan (kernel_draw "nan window" store params));
  Alcotest.check_raises "nan write-back refused"
    (Invalid_argument "Event_store.set_departure: NaN") (fun () ->
      Gibbs.resample_event (Rng.create ~seed:28 ()) store params 1)

let test_kernel_filters_nan_hinges () =
  (* g's knee is NaN (corrupted arrival) and e's slope infinite: both
     hinges drop, leaving one piece on [1, 3] *)
  let store = window_store () in
  set_departures store [ (3, nan) ];
  let params = { Params.rates = [| 1.0; 2.0; infinity |]; arrival_queue = 0 } in
  for _ = 1 to 3 do
    let x = kernel_draw "nan knee, infinite slope" store params in
    Alcotest.(check bool) "sample finite and in window" true
      (Float.is_finite x && x >= 1.0 && x <= 3.0);
    Gibbs.resample_event (Rng.create ~seed:29 ()) store params 1
  done

(* An adversarial sweep: corrupt one latent to -inf via snapshot (NaN
   neighbourhoods collapse to points) and check a full sweep neither
   raises nor writes NaN. *)
let test_sweep_survives_corrupt_neighbourhood () =
  let _, _, store = fresh_store ~tasks:40 () in
  let p = Stem.initial_guess store in
  let s = Store.snapshot store in
  let u = Store.unobserved_events store in
  s.Store.s_departure.(u.(0)) <- neg_infinity;
  Store.restore store s;
  let rng = Rng.create ~seed:26 () in
  Gibbs.sweep rng store p;
  let d = (Store.snapshot store).Store.s_departure in
  Array.iter
    (fun x -> Alcotest.(check bool) "no NaN written" true (not (Float.is_nan x)))
    d

(* ------------------------------------------------------------------ *)
(* Welford NaN robustness *)

let test_welford_skips_nan () =
  let w = Statistics.Welford.create () in
  List.iter (Statistics.Welford.add w) [ 1.0; nan; 2.0; nan; 3.0 ];
  Alcotest.(check int) "count excludes nan" 3 (Statistics.Welford.count w);
  Alcotest.(check int) "skipped counted" 2 (Statistics.Welford.skipped w);
  check_bits "mean unpoisoned" 2.0 (Statistics.Welford.mean w);
  Alcotest.(check bool) "variance finite" true
    (Float.is_finite (Statistics.Welford.variance w))

let test_welford_merge_combines_skipped () =
  let a = Statistics.Welford.create () and b = Statistics.Welford.create () in
  List.iter (Statistics.Welford.add a) [ 1.0; nan ];
  List.iter (Statistics.Welford.add b) [ 3.0; nan; nan ];
  let m = Statistics.Welford.merge a b in
  Alcotest.(check int) "merged count" 2 (Statistics.Welford.count m);
  Alcotest.(check int) "merged skipped" 3 (Statistics.Welford.skipped m);
  check_bits "merged mean" 2.0 (Statistics.Welford.mean m)

let () =
  Alcotest.run "qnet_runtime"
    [
      ( "checkpoint",
        [
          Alcotest.test_case "codec round trip" `Quick test_codec_round_trip;
          Alcotest.test_case "rejects corruption" `Quick test_codec_rejects_corruption;
          Alcotest.test_case "rejects future version" `Quick
            test_codec_rejects_future_version;
          Alcotest.test_case "rejects truncated file" `Quick test_load_truncated_file;
          Alcotest.test_case "decode is total" `Quick test_codec_never_raises;
          Alcotest.test_case "save/load file" `Quick test_save_load_file;
        ] );
      ( "resume",
        [
          Alcotest.test_case "kill/resume bit-identical" `Slow
            test_kill_resume_bit_identical;
          Alcotest.test_case "wrong store rejected" `Quick test_resume_rejects_wrong_store;
        ] );
      ( "golden",
        [
          Alcotest.test_case "clean run" `Quick test_golden_clean_run;
          Alcotest.test_case "one rollback" `Quick test_golden_rollback_run;
          Alcotest.test_case "Runtime.run = Stem.run" `Quick test_runtime_equals_stem;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "feeds Diagnostics" `Quick test_runtime_feeds_diagnostics ] );
      ( "health",
        [
          Alcotest.test_case "clean store" `Quick test_health_clean;
          Alcotest.test_case "nan latent" `Quick test_health_detects_nan_latent;
          Alcotest.test_case "degenerate rate" `Quick test_health_detects_degenerate_rate;
        ] );
      ( "recovery",
        [
          Alcotest.test_case "recovers from one fault" `Slow test_recovers_from_one_fault;
          Alcotest.test_case "aborts after max retries" `Quick
            test_aborts_after_max_retries;
          Alcotest.test_case "budget exhaustion" `Quick test_budget_exhaustion;
        ] );
      ( "lenient ingestion",
        [
          Alcotest.test_case "survives injected faults" `Slow
            test_lenient_survives_injected_faults;
          Alcotest.test_case "golden report" `Quick test_lenient_golden_report;
          Alcotest.test_case "clean trace clean report" `Quick
            test_lenient_clean_trace_no_errors;
        ] );
      ( "gibbs guards",
        [
          Alcotest.test_case "degenerate windows" `Quick test_compile_degenerate_windows;
          Alcotest.test_case "nan hinges filtered" `Quick test_compile_filters_nan_hinges;
          Alcotest.test_case "kernel: degenerate windows" `Quick
            test_kernel_degenerate_windows;
          Alcotest.test_case "kernel: nan hinges filtered" `Quick
            test_kernel_filters_nan_hinges;
          Alcotest.test_case "sweep survives corruption" `Quick
            test_sweep_survives_corrupt_neighbourhood;
        ] );
      ( "welford",
        [
          Alcotest.test_case "skips nan" `Quick test_welford_skips_nan;
          Alcotest.test_case "merge combines skipped" `Quick
            test_welford_merge_combines_skipped;
        ] );
    ]
