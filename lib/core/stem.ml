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

(* Each queue's ρ chain is walked in place through the store's view,
   in arrival order, so the guess reads no float through a function and
   allocates nothing per event. *)
let initial_guess store =
  Span.with_span "stem.initial_guess" @@ fun () ->
  let v = Store.view store in
  let d = v.Store.v_departure and observed = v.Store.v_observed in
  let pi = v.Store.v_pi and rho = v.Store.v_rho in
  let nq = Store.num_queues store in
  let q0 = Store.arrival_queue store in
  let horizon = ref 0.0 in
  for i = 0 to Array.length d - 1 do
    if observed.(i) then horizon := Float.max !horizon d.(i)
  done;
  let horizon = if !horizon > 0.0 then !horizon else 1.0 in
  let rates = Array.make nq 0.0 in
  for q = 0 to nq - 1 do
    (* (a) Exact services where the whole neighbourhood is observed. *)
    let exact_sum = ref 0.0 and exact_count = ref 0 in
    (* (b) Mean response of observed events: upper bound on service
       (meaningless at q0, where "response" is the entry time). *)
    let resp_sum = ref 0.0 and resp_count = ref 0 in
    (* (c) Mean inter-departure gap between observed events at known
       order indices — the event counter makes the index gap known.
       At q0 this estimates 1/λ exactly; elsewhere it upper-bounds the
       mean service via utilization <= 1. [k0] < 0 until one is seen. *)
    let k0 = ref (-1) and d0 = ref 0.0 and k1 = ref (-1) and d1 = ref 0.0 in
    let n = ref 0 and i = ref v.Store.v_heads.(q) in
    while !i >= 0 do
      let e = !i in
      if observed.(e) then begin
        if !k0 < 0 then begin
          k0 := !n;
          d0 := d.(e)
        end;
        k1 := !n;
        d1 := d.(e);
        let p = pi.(e) and r = rho.(e) in
        let a = if p < 0 then 0.0 else d.(p) in
        let obs_p = p < 0 || observed.(p) in
        if obs_p && (r < 0 || observed.(r)) then begin
          exact_sum := !exact_sum +. (d.(e) -. if r < 0 then a else Float.max a d.(r));
          incr exact_count
        end
        else if q <> q0 && obs_p then begin
          resp_sum := !resp_sum +. (d.(e) -. a);
          incr resp_count
        end
      end;
      incr n;
      i := v.Store.v_rho_inv.(e)
    done;
    (* every candidate is an upper bound on the mean service (or, at
       q0, an estimate of it); take the tightest, folding them in the
       order (c), (b), (a) *)
    let guess = ref infinity and found = ref false in
    if !k0 >= 0 && !k1 > !k0 && !d1 > !d0 then begin
      guess := Float.min !guess ((!d1 -. !d0) /. float_of_int (!k1 - !k0));
      found := true
    end;
    if !resp_count >= 3 && !resp_sum > 0.0 then begin
      guess := Float.min !guess (!resp_sum /. float_of_int !resp_count);
      found := true
    end;
    if !exact_count >= 3 && !exact_sum > 0.0 then begin
      guess := Float.min !guess (!exact_sum /. float_of_int !exact_count);
      found := true
    end;
    (* no observation at this queue at all: fall back to the
       horizon-based throughput bound *)
    if not !found then
      guess := Float.min (horizon /. float_of_int (Stdlib.max !n 1)) horizon;
    rates.(q) <- 1.0 /. Float.max 1e-9 !guess
  done;
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

let fork ~id rng c =
  {
    c with
    id;
    store = Store.copy c.store;
    rng;
    history = Array.copy c.history;
    llh = Array.copy c.llh;
  }

let step ?route_fsm ?(check = fun _ -> Ok ()) ?on_sample ?diagnostics config c =
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
      let hub = if instrumented then diagnostics else None in
      (* The realized (imputed) per-queue means of this iterate — the
         stochastic quantity convergence diagnostics track, not the
         smoothed parameter estimate — come from the log-likelihood's
         pass, and only when someone takes them. *)
      let realized =
        if Option.is_none hub && Option.is_none on_sample then begin
          c.llh.(it) <- Span.with_span "stem.loglik" (fun () -> Store.log_likelihood c.store p);
          [||]
        end
        else begin
          let llh, realized =
            Span.with_span "stem.loglik" (fun () ->
                Store.log_likelihood_and_mean_service c.store p)
          in
          c.llh.(it) <- llh;
          realized
        end
      in
      c.iteration <- it + 1;
      if instrumented then begin
        Metrics.Histogram.observe (Lazy.force m_iteration_seconds) (Clock.now () -. t0);
        Metrics.Counter.inc (Lazy.force m_iterations)
      end;
      (match on_sample with Some f -> f realized | None -> ());
      (match hub with
      | Some hub ->
          Diagnostics.set_arrival_queue hub (Store.arrival_queue c.store);
          Diagnostics.observe_iteration hub ~chain:c.id
            ~waiting:(Store.mean_waiting_by_queue c.store)
            realized
      | None -> ());
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

let run ?(config = default_config) ?init ?route_fsm ?diagnostics rng store =
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
    ignore (step ?route_fsm ?diagnostics config c : (unit, string) Stdlib.result);
    if Metrics.enabled () then Option.iter Diagnostics.gc_tick diagnostics
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
