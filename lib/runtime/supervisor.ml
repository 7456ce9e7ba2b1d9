module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Stem = Qnet_core.Stem
module Rng = Qnet_prob.Rng
module Statistics = Qnet_prob.Statistics
module Welford = Statistics.Welford
module Metrics = Qnet_obs.Metrics
module Span = Qnet_obs.Span
module Clock = Qnet_obs.Clock
module Diagnostics = Qnet_obs.Diagnostics

let log_src = Logs.Src.create "qnet.supervisor" ~doc:"Supervised multi-chain inference"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* Supervisor lifecycle telemetry: every decision the supervisor makes
   about a chain (restart, quarantine, death, abandonment) leaves a
   durable counter, so a metrics snapshot explains *why* a run ended
   with the chains it did — the gap this subsystem exists to close. *)
let sup_counter name help = lazy (Metrics.Counter.create ~help name)

let m_rounds = sup_counter "qnet_supervisor_rounds_total" "Round barriers completed"

let m_restarts =
  sup_counter "qnet_supervisor_restarts_total"
    "Chain restarts from the last good checkpoint"

let m_quarantines =
  sup_counter "qnet_supervisor_quarantines_total"
    "Chains quarantined (health or divergence) after exhausting restarts"

let m_deaths =
  sup_counter "qnet_supervisor_deaths_total"
    "Chains declared dead (crash/stall exhaustion or abandonment)"

let m_stalls =
  sup_counter "qnet_supervisor_watchdog_stalls_total"
    "Stall events: first Stalled verdict for a chain in a round"

let m_abandoned =
  sup_counter "qnet_supervisor_abandoned_total"
    "Chains whose domain ignored cancellation and was abandoned"

let m_watchdog_misses =
  sup_counter "qnet_supervisor_watchdog_misses_total"
    "Deadline misses observed by watchdog polls"

let m_checkpoints =
  sup_counter "qnet_supervisor_checkpoints_total"
    "In-memory chain checkpoints captured at round barriers"

let m_samples_ok =
  sup_counter "qnet_supervisor_samples_accepted_total"
    "Finite per-queue mean-service samples accepted into chain accumulators"

let m_samples_bad =
  sup_counter "qnet_supervisor_samples_rejected_total"
    "Non-finite per-queue mean-service samples rejected from chain accumulators"

let m_checkpoint_seconds =
  lazy
    (Metrics.Histogram.create
       ~buckets:[| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0 |]
       ~help:"Wall time to capture one in-memory chain checkpoint"
       "qnet_supervisor_checkpoint_seconds")

(* Force every lazy family at run entry so a scrape (or the final
   snapshot) exports them all at 0 even when nothing bad happened —
   an absent quarantine counter is indistinguishable from a broken
   exporter, a present zero is evidence of health. The step's own
   families are forced here too, on this domain: pool workers forcing
   one lazy at once would crash a chain with [CamlinternalLazy.Undefined]. *)
let register_metrics () =
  Stem.register_metrics ();
  Pool.register_metrics ();
  List.iter
    (fun m -> ignore (Lazy.force m : Metrics.Counter.t))
    [
      m_rounds; m_restarts; m_quarantines; m_deaths; m_stalls; m_abandoned;
      m_watchdog_misses; m_checkpoints; m_samples_ok; m_samples_bad;
    ];
  ignore (Lazy.force m_checkpoint_seconds : Metrics.Histogram.t)

let m_heartbeat_age chain =
  Metrics.Gauge.create
    ~labels:[ ("chain", string_of_int chain) ]
    ~help:"Seconds since the chain's last heartbeat, updated at each watchdog poll"
    "qnet_chain_heartbeat_age_seconds"

type config = {
  chains : int;
  min_chains : int;
  stem : Stem.config;
  round_iterations : int;
  sweep_deadline : float;
  stall_grace : float;
  max_restarts : int;
}

let default_config =
  {
    chains = 4;
    min_chains = 2;
    stem = Stem.default_config;
    round_iterations = 10;
    sweep_deadline = 5.0;
    stall_grace = 2.0;
    max_restarts = 2;
  }

(* Divergence gate: the outlier hunt runs only when the worst split-R̂
   over the service queues exceeds [rhat_threshold], and quarantines
   the outlier only when its KS distance against the pooled rest
   exceeds [ks_threshold]. *)
let rhat_threshold = 1.2
let ks_threshold = 0.7

type chain_status = Healthy | Quarantined of string | Dead of string

type chain_verdict = {
  chain : int;
  status : chain_status;
  iterations_done : int;
  restarts : int;
  heartbeats : int;
  violations : Health.violation list;
  incidents : (int * string) list;
}

type ensemble_status = Quorum | Degraded | Failed

type result = {
  params : Params.t;
  mean_service : float array;
  rhat : float array;
  ess : float array;
  healthy_chains : int;
  status : ensemble_status;
  verdicts : chain_verdict array;
  wall_seconds : float;
}

let pp_chain_status ppf = function
  | Healthy -> Format.pp_print_string ppf "healthy"
  | Quarantined why -> Format.fprintf ppf "quarantined: %s" why
  | Dead why -> Format.fprintf ppf "dead: %s" why

let pp_ensemble_status ppf s =
  Format.pp_print_string ppf
    (match s with Quorum -> "quorum" | Degraded -> "degraded" | Failed -> "failed")

let pp_verdict ppf v =
  Format.fprintf ppf "chain %d: %a — %d iterations, %d restart%s, %d heartbeats"
    v.chain pp_chain_status v.status v.iterations_done v.restarts
    (if v.restarts = 1 then "" else "s")
    v.heartbeats;
  if v.violations <> [] then
    Format.fprintf ppf "; %s" (Health.describe v.violations);
  List.iter
    (fun (it, cause) -> Format.fprintf ppf "@\n    [it %d] %s" it cause)
    v.incidents

let pp_result ppf r =
  Format.fprintf ppf "status: %a (%d/%d chains healthy)" pp_ensemble_status
    r.status r.healthy_chains
    (Array.length r.verdicts);
  Array.iter (fun v -> Format.fprintf ppf "@\n  %a" pp_verdict v) r.verdicts;
  (match r.status with
  | Quorum | Degraded ->
      Format.fprintf ppf "@\n  pooled mean service:";
      Array.iteri (fun q ms -> Format.fprintf ppf " q%d=%.4f" q ms) r.mean_service;
      Format.fprintf ppf "@\n  split-Rhat:";
      Array.iteri (fun q v -> Format.fprintf ppf " q%d=%.3f" q v) r.rhat;
      Format.fprintf ppf "@\n  pooled ESS:";
      Array.iteri (fun q v -> Format.fprintf ppf " q%d=%.1f" q v) r.ess
  | Failed -> (* a salvage, not an estimate *) ());
  Format.fprintf ppf "@\n  wall: %.2fs" r.wall_seconds

(* ------------------------------------------------------------------ *)
(* Per-chain supervised state.                                         *)
(* ------------------------------------------------------------------ *)

type armed_fault = { spec : Fault.chain_fault; mutable fired : bool }  (* qnet-lint: racy-ok C001 flipped by the round's pool job, read by the supervisor only between rounds (the job's completion is the barrier) *)

type round_outcome = Round_ok | Round_crashed of string

type chain_state = {
  chain : Stem.chain;  (* handed to the round's pool job like the fields below *)
  samples : float array array;
      (* realized mean service per queue per iteration — kept alongside
         the chain's history so the Welford accumulators can be rebuilt
         over the surviving prefix after a rollback, preserving NaN-skip
         accounting over exactly the samples that still count *)
  hb : Watchdog.Heartbeat.t;
  age_gauge : Metrics.Gauge.t;
  cancel : bool Atomic.t;
  faults : armed_fault array;
  mutable restarts : int;  (* qnet-lint: racy-ok C001 round-barrier hand-off: the round's pool job owns st until it finishes; supervisor touches it only between rounds *)
  mutable incidents : (int * string) list;  (* qnet-lint: racy-ok C001 round-barrier hand-off (see restarts) *)
  mutable status : chain_status;  (* qnet-lint: racy-ok C001 round-barrier hand-off (see restarts) *)
  mutable last_good : Checkpoint.t option;  (* qnet-lint: racy-ok C001 round-barrier hand-off (see restarts) *)
  mutable outcome : round_outcome;  (* qnet-lint: racy-ok C001 round-barrier hand-off (see restarts) *)
  mutable stall_flagged : bool;  (* qnet-lint: racy-ok C001 round-barrier hand-off (see restarts) *)
  mutable abandoned : bool;  (* qnet-lint: racy-ok C001 round-barrier hand-off (see restarts) *)
  mutable warmed : bool;  (* qnet-lint: racy-ok C001 round-barrier hand-off (see restarts) *)
  mutable welford : Welford.t array;  (* qnet-lint: racy-ok C001 round-barrier hand-off (see restarts) *)
}

(* Same clamped time source as Runtime.now: watchdog deadlines and
   heartbeat ages must agree with telemetry timestamps across domains. *)
let now () = Qnet_obs.Clock.now ()

let fresh_welford nq = Array.init nq (fun _ -> Welford.create ())

let chain_rng ~seed id = Rng.create ~seed:(seed + (id * 7919)) ()

let init_chain cfg faults init_outcome chain =
  let id = chain.Stem.id in
  let nq = Store.num_queues chain.Stem.store in
  {
    chain;
    samples = Array.init cfg.stem.Stem.iterations (fun _ -> Array.make nq Float.nan);
    hb = Watchdog.Heartbeat.create ();
    age_gauge = m_heartbeat_age id;
    cancel = Atomic.make false;
    faults =
      List.filter (fun f -> f.Fault.chain = id) faults
      |> List.map (fun spec -> { spec; fired = false })
      |> Array.of_list;
    restarts = 0;
    incidents = [];
    status =
      (match init_outcome with
      | Ok () -> Healthy
      | Error msg -> Dead ("initialization failed: " ^ msg));
    last_good = None;
    outcome = Round_ok;
    stall_flagged = false;
    abandoned = false;
    warmed = false;
    welford = fresh_welford nq;
  }

(* ------------------------------------------------------------------ *)
(* The chain worker — one round at a time, as a job on the pool.       *)
(* ------------------------------------------------------------------ *)

let fire_pre_step_faults st =
  let it = st.chain.Stem.iteration in
  Array.iter
    (fun af ->
      if (not af.fired) && af.spec.Fault.at_iteration = it then
        match af.spec.Fault.kind with
        | Fault.Chain_stall d ->
            af.fired <- true;
            Unix.sleepf d
        | Fault.Chain_crash ->
            af.fired <- true;
            raise (Fault.Injected_crash { chain = st.chain.Stem.id; iteration = it })
        | Fault.Chain_corrupt_latent -> ())
    st.faults

(* Latent corruption lands after the M-step: the damage shows in this
   iteration's recorded sample (Welford skips the NaN) and, if it
   survives the next sweep, in the barrier health check. *)
let fire_post_step_faults st _ =
  Array.iter
    (fun af ->
      if (not af.fired) && af.spec.Fault.at_iteration = st.chain.Stem.iteration then
        match af.spec.Fault.kind with
        | Fault.Chain_corrupt_latent ->
            af.fired <- true;
            ignore (Fault.corrupt_one_latent st.chain.Stem.store)
        | Fault.Chain_stall _ | Fault.Chain_crash -> ())
    st.faults;
  Ok ()

let record_sample st realized =
  Array.blit realized 0 st.samples.(st.chain.Stem.iteration - 1) 0 (Array.length realized);
  Array.iteri (fun q v -> Welford.add st.welford.(q) v) realized;
  if Metrics.enabled () then begin
    let ok = ref 0 and bad = ref 0 in
    Array.iter (fun v -> if Float.is_finite v then incr ok else incr bad) realized;
    if !ok > 0 then Metrics.Counter.inc ~by:(float_of_int !ok) (Lazy.force m_samples_ok);
    if !bad > 0 then Metrics.Counter.inc ~by:(float_of_int !bad) (Lazy.force m_samples_bad)
  end

(* The heartbeat is armed when a worker takes the job, not when it is
   submitted: a chain still queued behind others is not stalled. *)
let run_round ?diagnostics cfg st ~stop_at =
  Watchdog.Heartbeat.arm st.hb ~now:(now ());
  let chain = st.chain in
  Span.with_span "chain.round"
    ~attrs:
      [ ("chain", string_of_int chain.Stem.id); ("stop_at", string_of_int stop_at) ]
  @@ fun () ->
  let c = cfg.stem in
  (try
     if not st.warmed then begin
       Stem.warmup c chain ~before_sweep:(fun k ->
           (not (Atomic.get st.cancel))
           && begin
                Watchdog.Heartbeat.beat st.hb ~now:(now ())
                  ~sweep:(k - c.Stem.warmup_sweeps - 1);
                true
              end);
       st.warmed <- true
     end;
     while chain.Stem.iteration < stop_at && not (Atomic.get st.cancel) do
       Watchdog.Heartbeat.beat st.hb ~now:(now ()) ~sweep:chain.Stem.iteration;
       fire_pre_step_faults st;
       ignore
         (Stem.step ~check:(fire_post_step_faults st) ~on_sample:(record_sample st)
            ?diagnostics c chain
           : (unit, string) Stdlib.result)
     done
   with exn -> st.outcome <- Round_crashed (Printexc.to_string exn));
  Watchdog.Heartbeat.mark_done st.hb

(* ------------------------------------------------------------------ *)
(* Barrier-side control: recovery, health checks, divergence.          *)
(* ------------------------------------------------------------------ *)

(* Called only once the barrier's health check has passed: the new
   checkpoint reuses the previous one's arrays, which a rollback no
   longer needs. *)
let capture st =
  let instrumented = Metrics.enabled () in
  let t0 = if instrumented then Clock.now () else 0.0 in
  let ck = Checkpoint.capture ?into:st.last_good st.chain in
  if instrumented then begin
    Metrics.Histogram.observe (Lazy.force m_checkpoint_seconds) (Clock.now () -. t0);
    Metrics.Counter.inc (Lazy.force m_checkpoints)
  end;
  ck

let rebuild_accumulators st =
  let nq = Array.length st.welford in
  st.welford <- fresh_welford nq;
  for i = 0 to st.chain.Stem.iteration - 1 do
    for q = 0 to nq - 1 do
      Welford.add st.welford.(q) st.samples.(i).(q)
    done
  done

(* Roll a failed chain back to its last good checkpoint (or to scratch
   if it never produced one) and re-jitter the latents. The RNG is
   deliberately NOT restored: it has advanced past the failure, so the
   retry explores a different sampling path instead of replaying the
   one that just died. [fatal] failures (crash/stall) exhaust into
   [Dead]; recoverable ones (health/divergence) into [Quarantined]. *)
let recover cfg st ~fatal ~cause =
  let chain = st.chain in
  if st.restarts >= cfg.max_restarts then begin
    st.status <- (if fatal then Dead cause else Quarantined cause);
    Log.warn (fun m ->
        m "chain %d %s after %d restarts: %s" chain.Stem.id
          (if fatal then "dead" else "quarantined")
          st.restarts cause);
    if Metrics.enabled () then
      Metrics.Counter.inc
        (Lazy.force (if fatal then m_deaths else m_quarantines))
  end
  else begin
    st.restarts <- st.restarts + 1;
    Log.info (fun m ->
        m "chain %d restart %d/%d (%s): rolling back to iteration %d" chain.Stem.id
          st.restarts cfg.max_restarts cause
          (match st.last_good with Some ck -> ck.Checkpoint.iteration | None -> 0));
    if Metrics.enabled () then Metrics.Counter.inc (Lazy.force m_restarts);
    (match st.last_good with
    | Some ck -> Checkpoint.rollback ck chain
    | None ->
        chain.Stem.params <- chain.Stem.anchor;
        chain.Stem.iteration <- 0;
        st.warmed <- false);
    (match Stem.reinit cfg.stem chain with
    | Ok () -> ()
    | Error msg -> st.status <- Dead ("restart re-initialization failed: " ^ msg));
    rebuild_accumulators st
  end

let barrier_check cfg st =
  match st.outcome with
  | Round_crashed cause ->
      let cause = "crash: " ^ cause in
      st.incidents <- (st.chain.Stem.iteration, cause) :: st.incidents;
      recover cfg st ~fatal:true ~cause
  | Round_ok ->
      if st.stall_flagged then recover cfg st ~fatal:true ~cause:"stall"
        (* incident already logged when the watchdog flagged it *)
      else begin
        match Health.check st.chain.Stem.store st.chain.Stem.params with
        | [] -> st.last_good <- Some (capture st)
        | vs ->
            let cause = "health: " ^ Health.describe vs in
            st.incidents <- (st.chain.Stem.iteration, cause) :: st.incidents;
            recover cfg st ~fatal:false ~cause
      end

(* Cross-chain divergence monitor. Gated on the split-R̂ of the pooled
   post-burn-in mean-service iterates over {e service} queues only —
   the arrival queue's trace is nearly deterministic within a chain
   (see the [rhat] doc in supervisor.mli) and would trip the gate
   spuriously.
   When the gate trips, the chain with the largest KS distance against
   the pooled rest is quarantined — at most one per barrier, so a
   single bad chain cannot drag the healthy majority out with it.
   Needs at least three healthy chains: with two, the KS statistic is
   symmetric and cannot tell the outlier from the consensus. *)
let divergence_pass cfg chains =
  let healthy =
    Array.to_list chains |> List.filter (fun st -> st.status = Healthy)
  in
  if List.length healthy >= 3 then begin
    let burn = cfg.stem.Stem.burn_in in
    let window =
      List.fold_left
        (fun acc st -> Stdlib.min acc (st.chain.Stem.iteration - burn))
        max_int healthy
    in
    if window >= 8 then begin
      let anchor = (List.hd healthy).chain.Stem.anchor in
      let nq = Params.num_queues anchor in
      let aq = anchor.Params.arrival_queue in
      let service_queues =
        List.filter (fun q -> q <> aq) (List.init nq Fun.id)
      in
      let trace st q =
        let it = st.chain.Stem.iteration in
        Array.init window (fun k ->
            Params.mean_service st.chain.Stem.history.(it - window + k) q)
      in
      let rhat_max =
        List.fold_left
          (fun acc q ->
            let traces =
              Array.of_list (List.map (fun st -> trace st q) healthy)
            in
            Float.max acc (Statistics.split_gelman_rubin traces))
          0.0 service_queues
      in
      if rhat_max > rhat_threshold then begin
        let score st =
          List.fold_left
            (fun acc q ->
              let pooled =
                Array.concat
                  (List.filter_map
                     (fun o -> if o == st then None else Some (trace o q))
                     healthy)
              in
              Float.max acc (Statistics.ks_two_sample (trace st q) pooled))
            0.0 service_queues
        in
        let worst =
          List.fold_left
            (fun acc st ->
              let s = score st in
              match acc with
              | Some (_, s') when s' >= s -> acc
              | _ -> Some (st, s))
            None healthy
        in
        match worst with
        | Some (st, s) when s > ks_threshold ->
            let cause =
              Printf.sprintf
                "divergence: split-Rhat %.3f > %.2f, KS %.3f vs pooled rest"
                rhat_max rhat_threshold s
            in
            st.incidents <- (st.chain.Stem.iteration, cause) :: st.incidents;
            recover cfg st ~fatal:false ~cause
        | _ -> ()
      end
    end
  end

(* ------------------------------------------------------------------ *)
(* Watchdog loop: wait until every job of the round has finished or    *)
(* been abandoned, checking heartbeats while any runs.                 *)
(* ------------------------------------------------------------------ *)

let watch cfg waiter jobs =
  let arr = Array.of_list jobs in
  let wd =
    Watchdog.create ~deadline:cfg.sweep_deadline
      (Array.map (fun (st, _) -> st.hb) arr)
  in
  let first_stalled = Hashtbl.create 8 in
  let abandoned = ref [] in
  let settled (st, job) = Pool.finished job || List.memq st !abandoned in
  let all_settled () = Array.for_all settled arr in
  let instrumented = Metrics.enabled () in
  (* A finished job wakes the wait at once; the timeout only paces the
     heartbeat checks. A queued chain's heartbeat reads done until its
     job starts, so the watchdog does not judge it. *)
  let check_period = cfg.sweep_deadline /. 10.0 in
  while not (all_settled ()) do
    let t = now () in
    let verdicts = Watchdog.poll ~now:t wd in
    if instrumented then
      Array.iter
        (fun (st, _) ->
          Metrics.Gauge.set st.age_gauge
            (if Watchdog.Heartbeat.is_done st.hb then 0.0
             else Watchdog.Heartbeat.age st.hb ~now:t))
        arr;
    Array.iteri
      (fun i v ->
        let st, job = arr.(i) in
        match v with
        | Watchdog.Stalled age when not (List.memq st !abandoned) ->
            if not st.stall_flagged then begin
              st.stall_flagged <- true;
              Log.warn (fun m ->
                  m "chain %d stalled: no heartbeat for %.3fs (deadline %.3gs)"
                    st.chain.Stem.id age cfg.sweep_deadline);
              if instrumented then Metrics.Counter.inc (Lazy.force m_stalls);
              let _, sweep = Watchdog.Heartbeat.last st.hb in
              st.incidents <-
                ( sweep,
                  Printf.sprintf
                    "watchdog: no heartbeat for %.3fs (deadline %.3gs); \
                     cancelling"
                    age cfg.sweep_deadline )
                :: st.incidents;
              Atomic.set st.cancel true;
              Hashtbl.replace first_stalled st.chain.Stem.id t
            end
            else begin
              let since =
                t
                -. (try Hashtbl.find first_stalled st.chain.Stem.id
                    with Not_found -> t)
              in
              if since > cfg.stall_grace then begin
                Log.err (fun m ->
                    m "chain %d unresponsive %.3fs past cancellation; abandoning"
                      st.chain.Stem.id since);
                Pool.abandon job;
                abandoned := st :: !abandoned
              end
            end
        | _ -> ())
      verdicts;
    if not (all_settled ()) then Pool.wait waiter ~timeout:check_period
  done;
  if instrumented then begin
    let n = Watchdog.misses wd in
    if n > 0 then
      Metrics.Counter.inc ~by:(float_of_int n) (Lazy.force m_watchdog_misses);
    List.iter
      (fun _ -> Metrics.Counter.inc (Lazy.force m_abandoned))
      !abandoned
  end;
  !abandoned

(* ------------------------------------------------------------------ *)
(* Final pooling and verdicts.                                         *)
(* ------------------------------------------------------------------ *)

let verdict_of st =
  let merged =
    Array.fold_left Welford.merge (Welford.create ()) st.welford
  in
  {
    chain = st.chain.Stem.id;
    status = st.status;
    iterations_done =
      (* an abandoned chain's iteration races with its zombie job;
         the heartbeat's sweep index is the last trustworthy reading *)
      (if st.abandoned then snd (Watchdog.Heartbeat.last st.hb)
       else st.chain.Stem.iteration);
    restarts = st.restarts;
    heartbeats = Watchdog.Heartbeat.beats st.hb;
    violations = Health.of_accumulator merged;
    incidents = List.rev st.incidents;
  }

let finalize cfg chains t0 =
  let burn = cfg.stem.Stem.burn_in in
  let all = Array.to_list chains in
  let healthy = List.filter (fun st -> st.status = Healthy) all in
  let n_healthy = List.length healthy in
  let status =
    if n_healthy >= cfg.min_chains then Quorum
    else if n_healthy > 0 then Degraded
    else Failed
  in
  (* Pool over healthy chains; if none survived, salvage from any
     non-abandoned chain that got past burn-in so the caller still
     gets a number (clearly marked [Failed]). *)
  let contributors =
    if healthy <> [] then healthy
    else
      List.filter
        (fun st -> (not st.abandoned) && st.chain.Stem.iteration > burn)
        all
  in
  let anchor0 = chains.(0).chain.Stem.anchor in
  let nq = Params.num_queues anchor0 in
  let aq = anchor0.Params.arrival_queue in
  let post_burn st q =
    Array.init (st.chain.Stem.iteration - burn) (fun k ->
        Params.mean_service st.chain.Stem.history.(burn + k) q)
  in
  let params, mean_service =
    match List.filter (fun st -> st.chain.Stem.iteration > burn) contributors with
    | [] -> (anchor0, Array.init nq (Params.mean_service anchor0))
    | cs ->
        let ms =
          Array.init nq (fun q ->
              let w = Welford.create () in
              List.iter
                (fun st -> Array.iter (Welford.add w) (post_burn st q))
                cs;
              Welford.mean w)
        in
        let p =
          try
            Params.create
              ~rates:(Array.map (fun m -> 1.0 /. m) ms)
              ~arrival_queue:aq
          with Invalid_argument _ -> anchor0
        in
        (p, ms)
  in
  let long_enough =
    List.filter (fun st -> st.chain.Stem.iteration - burn >= 4) healthy
  in
  let rhat, ess =
    match long_enough with
    | [] -> (Array.make nq Float.nan, Array.make nq Float.nan)
    | cs ->
        let per_queue f =
          Array.init nq (fun q ->
              let traces =
                Array.of_list (List.map (fun st -> post_burn st q) cs)
              in
              try f traces with Invalid_argument _ -> Float.nan)
        in
        ( per_queue Statistics.split_gelman_rubin,
          per_queue Statistics.pooled_effective_sample_size )
  in
  {
    params;
    mean_service;
    rhat;
    ess;
    healthy_chains = n_healthy;
    status;
    verdicts = Array.map verdict_of chains;
    wall_seconds = now () -. t0;
  }

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)
(* ------------------------------------------------------------------ *)

let validate cfg faults =
  let fail msg = invalid_arg ("Supervisor.run: " ^ msg) in
  (* a job waiting on its own chains' jobs can hold every worker *)
  if Pool.in_worker () then fail "called from a pool job";
  if cfg.chains < 1 then fail "chains must be >= 1";
  if cfg.min_chains < 1 || cfg.min_chains > cfg.chains then
    fail "min_chains must be in [1, chains]";
  if cfg.round_iterations < 1 then fail "round_iterations must be >= 1";
  if cfg.stem.Stem.iterations < 1 then fail "stem.iterations must be >= 1";
  if cfg.stem.Stem.burn_in < 0 || cfg.stem.Stem.burn_in >= cfg.stem.Stem.iterations
  then fail "stem.burn_in must be in [0, iterations)";
  if not (Float.is_finite cfg.sweep_deadline && cfg.sweep_deadline > 0.0) then
    fail "sweep_deadline must be finite and positive";
  if not (Float.is_finite cfg.stall_grace && cfg.stall_grace >= 0.0) then
    fail "stall_grace must be finite and non-negative";
  if cfg.max_restarts < 0 then fail "max_restarts must be >= 0";
  List.iter
    (fun f ->
      if f.Fault.chain < 0 || f.Fault.chain >= cfg.chains then
        fail
          (Printf.sprintf "fault targets chain %d outside [0, %d)"
             f.Fault.chain cfg.chains);
      if f.Fault.at_iteration < 0 then fail "fault at_iteration must be >= 0")
    faults

let chain_status_string = function
  | Healthy -> "healthy"
  | Quarantined c -> "quarantined: " ^ c
  | Dead c -> "dead: " ^ c

let export_diag_statuses hub chains =
  Array.iter
    (fun st ->
      Diagnostics.set_chain_status hub ~chain:st.chain.Stem.id
        (chain_status_string st.status))
    chains

let run ?(config = default_config) ?init ?(faults = []) ?diagnostics ~seed make_store =
  validate config faults;
  (* the hub, when the caller owns one and metrics are on *)
  let hub = if Metrics.enabled () then diagnostics else None in
  if Metrics.enabled () then register_metrics ();
  Option.iter
    (fun hub ->
      Diagnostics.register_metrics ();
      Diagnostics.reset hub;
      Diagnostics.set_ensemble_status hub "running")
    hub;
  Span.with_span "supervisor.run"
    ~attrs:[ ("chains", string_of_int config.chains) ]
  @@ fun () ->
  let t0 = now () in
  (* Chain 0 builds and initializes the run's one store; every other
     chain starts on a copy of it. [Init.feasible] draws nothing, so a
     copy holds the latents its own build and initialization would
     reach, to the bit, and when it fails it fails the same way for
     every chain. *)
  let first, init_outcome =
    Stem.start ~id:0 ?init config.stem (chain_rng ~seed 0) (make_store ())
  in
  let chains =
    Array.init config.chains (fun id ->
        init_chain config faults init_outcome
          (if id = 0 then first else Stem.fork ~id (chain_rng ~seed id) first))
  in
  let waiter = Pool.waiter () in
  Fun.protect ~finally:(fun () -> Pool.release waiter) @@ fun () ->
  let iterations = config.stem.Stem.iterations in
  let continue_ = ref true in
  let round = ref 0 in
  while !continue_ do
    let runnable =
      Array.to_list chains
      |> List.filter (fun st ->
             st.status = Healthy && st.chain.Stem.iteration < iterations)
    in
    if runnable = [] then continue_ := false
    else begin
      Span.with_span "supervisor.round"
        ~attrs:[ ("round", string_of_int !round) ]
      @@ fun () ->
      incr round;
      List.iter
        (fun st ->
          Atomic.set st.cancel false;
          st.stall_flagged <- false;
          st.outcome <- Round_ok)
        runnable;
      let jobs =
        List.map
          (fun st ->
            let stop_at =
              Stdlib.min iterations (st.chain.Stem.iteration + config.round_iterations)
            in
            (st, Pool.submit waiter (fun () -> run_round ?diagnostics:hub config st ~stop_at)))
          runnable
      in
      let abandoned = watch config waiter jobs in
      List.iter
        (fun st ->
          if List.memq st abandoned then begin
            st.abandoned <- true;
            if Metrics.enabled () then Metrics.Counter.inc (Lazy.force m_deaths);
            st.status <-
              Dead
                (Printf.sprintf
                   "watchdog: unresponsive for %.3gs past the %.3gs deadline; \
                    domain abandoned"
                   config.stall_grace config.sweep_deadline)
          end
          else barrier_check config st)
        runnable;
      divergence_pass config chains;
      if Metrics.enabled () then Metrics.Counter.inc (Lazy.force m_rounds);
      (* Barrier-side diagnostics export: verdict strings plus one
         GC sample. Ticking GC here (supervisor domain) rather than
         per-iteration keeps the pool workers' deltas from
         interleaving; heap/major figures stay meaningful, minor
         words are supervisor-local — an accepted approximation. *)
      Option.iter
        (fun hub ->
          export_diag_statuses hub chains;
          Diagnostics.gc_tick hub)
        hub
    end
  done;
  let r = finalize config chains t0 in
  Option.iter
    (fun hub ->
      export_diag_statuses hub chains;
      Diagnostics.set_ensemble_status hub
        (match r.status with
        | Quorum -> "quorum"
        | Degraded -> "degraded"
        | Failed -> "failed");
      Diagnostics.publish hub)
    hub;
  Log.info (fun m ->
      m "run finished: %a, %d/%d chains healthy in %.2fs" pp_ensemble_status
        r.status r.healthy_chains (Array.length r.verdicts) r.wall_seconds);
  r
