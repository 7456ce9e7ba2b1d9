module Store = Event_store
module Metrics = Qnet_obs.Metrics
module Span = Qnet_obs.Span
module Clock = Qnet_obs.Clock
module Diagnostics = Qnet_obs.Diagnostics

let m_iteration_seconds =
  lazy
    (Metrics.Histogram.create
       ~buckets:[| 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]
       ~help:"Wall time of one StEM iteration (E-step sweep + M-step)"
       "qnet_stem_iteration_seconds")

let m_iterations =
  lazy
    (Metrics.Counter.create ~help:"StEM iterations completed"
       "qnet_stem_iterations_total")

(* M-step acceptance: a queue's rate is updated only when enough
   imputed services support it; held queues keep their previous rate. *)
let m_mstep_updates =
  lazy
    (Metrics.Counter.create
       ~help:"Per-queue M-step rate updates accepted (enough imputed services)"
       "qnet_stem_mstep_updates_total")

let m_mstep_holds =
  lazy
    (Metrics.Counter.create
       ~help:"Per-queue M-step rate updates held back (too few imputed services)"
       "qnet_stem_mstep_holds_total")

let register_metrics () =
  Gibbs.register_metrics ();
  ignore (Lazy.force m_iteration_seconds : Metrics.Histogram.t);
  List.iter
    (fun m -> ignore (Lazy.force m : Metrics.Counter.t))
    [ m_iterations; m_mstep_updates; m_mstep_holds ]

type config = {
  iterations : int;
  burn_in : int;
  warmup_sweeps : int;
  init_strategy : Init.strategy;
  shuffle : bool;
  min_queue_events : int;
  prior_strength : float;
}

let default_config =
  {
    iterations = 200;
    burn_in = 100;
    warmup_sweeps = 10;
    init_strategy = Init.Targeted;
    shuffle = false;
    min_queue_events = 1;
    prior_strength = 0.05;
  }

type result = {
  params : Params.t;
  params_last : Params.t;
  history : Params.t array;
  mean_service : float array;
  log_likelihood_history : float array;
}

let initial_guess store =
  let nq = Store.num_queues store in
  let m = Store.num_events store in
  let q0 = Store.arrival_queue store in
  let horizon = ref 0.0 in
  for i = 0 to m - 1 do
    if Store.observed store i then
      horizon := Float.max !horizon (Store.departure store i)
  done;
  let horizon = if !horizon > 0.0 then !horizon else 1.0 in
  let mean_service_guess q =
    let order = Store.events_at_queue store q in
    let n = Array.length order in
    (* (a) Exact services where the whole neighbourhood is observed. *)
    let exact_sum = ref 0.0 and exact_count = ref 0 in
    (* (b) Mean response of observed events: upper bound on service
       (meaningless at q0, where "response" is the entry time). *)
    let resp_sum = ref 0.0 and resp_count = ref 0 in
    (* (c) Mean inter-departure gap between observed events at known
       order indices — the event counter makes the index gap known.
       At q0 this estimates 1/λ exactly; elsewhere it upper-bounds the
       mean service via utilization <= 1. *)
    let first = ref None and last = ref None in
    Array.iteri
      (fun k i ->
        let obs j = j < 0 || Store.observed store j in
        if Store.observed store i then begin
          (match !first with None -> first := Some (k, Store.departure store i) | Some _ -> ());
          last := Some (k, Store.departure store i);
          if obs (Store.pi store i) && obs (Store.rho store i) then begin
            exact_sum := !exact_sum +. Store.service store i;
            incr exact_count
          end
          else if q <> q0 && obs (Store.pi store i) then begin
            resp_sum := !resp_sum +. (Store.departure store i -. Store.arrival store i);
            incr resp_count
          end
        end)
      order;
    let candidates = ref [] in
    if !exact_count >= 3 && !exact_sum > 0.0 then
      candidates := (!exact_sum /. float_of_int !exact_count) :: !candidates;
    if !resp_count >= 3 && !resp_sum > 0.0 then
      candidates := (!resp_sum /. float_of_int !resp_count) :: !candidates;
    (match (!first, !last) with
    | Some (k0, d0), Some (k1, d1) when k1 > k0 && d1 > d0 ->
        candidates := ((d1 -. d0) /. float_of_int (k1 - k0)) :: !candidates
    | _ -> ());
    match !candidates with
    | [] ->
        (* no observation at this queue at all: fall back to the
           horizon-based throughput bound *)
        Float.min (horizon /. float_of_int (Stdlib.max n 1)) horizon
    | cs ->
        (* every candidate is an upper bound on the mean service (or,
           at q0, an estimate of it); take the tightest *)
        List.fold_left Float.min infinity cs
  in
  let rates =
    Array.init nq (fun q -> 1.0 /. Float.max 1e-9 (mean_service_guess q))
  in
  Params.create ~rates ~arrival_queue:q0

let mle_step ?prior store ~previous ~min_queue_events =
  let stats = Store.service_sufficient_stats store in
  let instrumented = Metrics.enabled () in
  Params.map_rates previous (fun q prev ->
      let count, total = stats.(q) in
      if count >= min_queue_events && total > 0.0 then begin
        if instrumented then Metrics.Counter.inc (Lazy.force m_mstep_updates);
        match prior with
        | None -> float_of_int count /. total
        | Some (strength, anchor) ->
            (* MAP under a Gamma prior with pseudo-service mass
               [strength * count * anchor mean]: invisible when the
               imputed services carry real information, but it stops
               the collapse feedback (rates ratcheting to infinity by
               hiding all time in density-free waiting) that pure
               maximum likelihood allows under very sparse
               observation. *)
            let pseudo = strength *. float_of_int count *. Params.mean_service anchor q in
            (float_of_int count +. 1.0) /. (total +. pseudo)
      end
      else begin
        if instrumented then Metrics.Counter.inc (Lazy.force m_mstep_holds);
        prev
      end)

type chain = {
  id : int;
  store : Store.t;
  rng : Qnet_prob.Rng.t;
  anchor : Params.t;
  history : Params.t array;
  llh : float array;
  mutable params : Params.t;
  mutable iteration : int;
}

let reinit config c = Init.feasible ~strategy:config.init_strategy ~target:c.anchor c.store

let start ?(id = 0) ?init config rng store =
  let anchor = match init with Some p -> p | None -> initial_guess store in
  let c =
    {
      id;
      store;
      rng;
      anchor;
      history = Array.make config.iterations anchor;
      llh = Array.make config.iterations nan;
      params = anchor;
      iteration = 0;
    }
  in
  (c, reinit config c)

let warmup ?(before_sweep = fun _ -> true) config c =
  Span.with_span "stem.warmup" (fun () ->
      let k = ref 1 in
      while !k <= config.warmup_sweeps && before_sweep !k do
        Gibbs.sweep ~shuffle:config.shuffle c.rng c.store c.params;
        incr k
      done)

let step ?route_fsm ?(check = fun _ -> Ok ()) ?on_sample config c =
  Span.with_span "stem.iteration" @@ fun () ->
  let instrumented = Metrics.enabled () in
  let t0 = if instrumented then Clock.now () else 0.0 in
  (* Stochastic E-step: one sweep under the current parameters, plus
     a routing sweep when paths are uncertain. *)
  Gibbs.sweep ~shuffle:config.shuffle c.rng c.store c.params;
  (match route_fsm with
  | Some fsm -> ignore (Path_move.sweep c.rng c.store c.params fsm)
  | None -> ());
  (* M-step (MAP when prior_strength > 0). *)
  let prior =
    if config.prior_strength > 0.0 then Some (config.prior_strength, c.anchor) else None
  in
  let p =
    Span.with_span "stem.mstep" (fun () ->
        mle_step ?prior c.store ~previous:c.params ~min_queue_events:config.min_queue_events)
  in
  match check p with
  | Error _ as rejected -> rejected
  | Ok () ->
      let it = c.iteration in
      c.params <- p;
      c.history.(it) <- p;
      c.llh.(it) <- Span.with_span "stem.loglik" (fun () -> Store.log_likelihood c.store p);
      c.iteration <- it + 1;
      if instrumented || Option.is_some on_sample then begin
        (* The realized (imputed) per-queue means of this iterate — the
           stochastic quantity convergence diagnostics track, not the
           smoothed parameter estimate. *)
        let realized = Store.mean_service_by_queue c.store in
        Option.iter (fun f -> f realized) on_sample;
        if instrumented then begin
          Metrics.Histogram.observe (Lazy.force m_iteration_seconds) (Clock.now () -. t0);
          Metrics.Counter.inc (Lazy.force m_iterations);
          Diagnostics.set_arrival_queue Diagnostics.default (Store.arrival_queue c.store);
          Diagnostics.observe_iteration Diagnostics.default ~chain:c.id
            ~waiting:(Store.mean_waiting_by_queue c.store)
            realized
        end
      end;
      Ok ()

let average config c =
  let n = c.iteration and nq = Store.num_queues c.store in
  let mean_service =
    if n = 0 then Array.init nq (Params.mean_service c.params)
    else begin
      let burn = if n > config.burn_in then config.burn_in else 0 in
      let kept = n - burn in
      let acc = Array.make nq 0.0 in
      for i = burn to n - 1 do
        for q = 0 to nq - 1 do
          acc.(q) <- acc.(q) +. (Params.mean_service c.history.(i) q /. float_of_int kept)
        done
      done;
      acc
    end
  in
  {
    params =
      Params.create
        ~rates:(Array.map (fun s -> 1.0 /. s) mean_service)
        ~arrival_queue:(Store.arrival_queue c.store);
    params_last = c.params;
    history = Array.sub c.history 0 n;
    mean_service;
    log_likelihood_history = Array.sub c.llh 0 n;
  }

let run ?(config = default_config) ?init ?route_fsm rng store =
  Span.with_span "stem.run" @@ fun () ->
  if config.iterations < 1 then invalid_arg "Stem.run: need at least one iteration";
  if config.burn_in < 0 || config.burn_in >= config.iterations then
    invalid_arg "Stem.run: burn_in must be in [0, iterations)";
  let c, init_outcome = start ?init config rng store in
  (match init_outcome with
  | Ok () -> ()
  | Error msg -> failwith ("Stem.run: initialization failed: " ^ msg));
  warmup config c;
  for _ = 1 to config.iterations do
    ignore (step ?route_fsm config c : (unit, string) Stdlib.result);
    if Metrics.enabled () then Diagnostics.gc_tick Diagnostics.default
  done;
  average config c

let estimate_waiting ?(sweeps = 100) ?(burn_in = 50) rng store params =
  if burn_in < 0 || burn_in >= sweeps then
    invalid_arg "Stem.estimate_waiting: burn_in must be in [0, sweeps)";
  Span.with_span "stem.estimate_waiting" @@ fun () ->
  let nq = Store.num_queues store in
  let acc = Array.make nq 0.0 in
  let kept = sweeps - burn_in in
  for sweep = 0 to sweeps - 1 do
    Gibbs.sweep rng store params;
    if sweep >= burn_in then begin
      let w = Store.mean_waiting_by_queue store in
      for q = 0 to nq - 1 do
        acc.(q) <- acc.(q) +. (w.(q) /. float_of_int kept)
      done
    end
  done;
  acc
