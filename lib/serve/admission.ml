(* Adaptive sampled admission: a per-tenant Bernoulli sampler whose
   retention rate is driven by an AIMD controller.

   Sutton & Jordan's journal version runs the estimator against
   services admitting ~1% of requests; the estimator is unbiased under
   Bernoulli thinning, so under overload it is strictly better to keep
   a fair sample of the stream than to 429 whole batches. The daemon
   feeds each tenant's observed pressure (ingest queue fraction and
   refit lag of its shard) into [observe]; the controller answers
   [admit] coin flips at the current rate.

   AIMD: pressure at or above the high watermark multiplies the rate
   down (fast back-off), pressure at or below the low watermark adds a
   constant back (slow, stable recovery) — the same shape TCP uses for
   congestion, which converges to a fair share without oscillating.
   Adjustments are throttled to one per [adjust_interval] per tenant so
   a single burst of batches cannot collapse the rate in one round
   trip. At rate 1.0 the coin is short-circuited and the RNG does not
   advance, so fully-admitted streams stay byte-deterministic. *)

module Metrics = Qnet_obs.Metrics
module Rng = Qnet_prob.Rng

type config = {
  min_rate : float;
  increase : float;
  decrease : float;
  high_watermark : float;
  low_watermark : float;
  adjust_interval : float;
  seed : int;
}

let default_config =
  {
    min_rate = 0.01;
    increase = 0.05;
    decrease = 0.5;
    high_watermark = 0.75;
    low_watermark = 0.5;
    adjust_interval = 0.1;
    seed = 0;
  }

type tenant_state = {
  mutable rate : float;
  mutable offered : int;
  mutable admitted : int;
  mutable last_adjust : float;
}

type t = {
  cfg : config;
  mutex : Mutex.t;
  rng : Rng.t;
  tbl : (string, tenant_state) Hashtbl.t;
}

let m_offered = Serve_metrics.counter "qnet_serve_admission_offered_total"

let m_sampled_out =
  Serve_metrics.counter "qnet_serve_admission_sampled_out_total"

let m_decreases =
  Serve_metrics.counter "qnet_serve_admission_rate_decreases_total"

let m_increases =
  Serve_metrics.counter "qnet_serve_admission_rate_increases_total"

let g_rate = Serve_metrics.gauge "qnet_serve_admission_rate"

let tenant_rate_gauge tenant =
  Metrics.Gauge.create
    ~help:"Current per-tenant Bernoulli admission rate"
    ~labels:[ ("tenant", tenant) ]
    "qnet_serve_admission_rate"

let validate cfg =
  if cfg.min_rate <= 0.0 || cfg.min_rate > 1.0 then
    Error "admission min_rate must be in (0, 1]"
  else if cfg.increase <= 0.0 then Error "admission increase must be > 0"
  else if cfg.decrease <= 0.0 || cfg.decrease >= 1.0 then
    Error "admission decrease must be in (0, 1)"
  else if
    cfg.high_watermark <= cfg.low_watermark
    || cfg.low_watermark < 0.0 || cfg.high_watermark > 1.0
  then Error "admission high/low watermarks malformed"
  else if cfg.adjust_interval < 0.0 then
    Error "admission adjust_interval must be >= 0"
  else Ok ()

let create cfg =
  {
    cfg;
    mutex = Mutex.create ();
    rng = Rng.create ~seed:cfg.seed ();
    tbl = Hashtbl.create 16;
  }

let state t tenant =
  match Hashtbl.find_opt t.tbl tenant with
  | Some ts -> ts
  | None ->
      let ts =
        { rate = 1.0; offered = 0; admitted = 0; last_adjust = neg_infinity }
      in
      Hashtbl.replace t.tbl tenant ts;
      ts

let min_rate_over_tenants t =
  Hashtbl.fold (fun _ ts acc -> Float.min ts.rate acc) t.tbl 1.0

let observe t ~tenant ~pressure ~now =
  Mutex.protect t.mutex (fun () ->
      let ts = state t tenant in
      if now -. ts.last_adjust >= t.cfg.adjust_interval then begin
        let before = ts.rate in
        if pressure >= t.cfg.high_watermark then
          ts.rate <- Float.max t.cfg.min_rate (ts.rate *. t.cfg.decrease)
        else if pressure <= t.cfg.low_watermark then
          ts.rate <- Float.min 1.0 (ts.rate +. t.cfg.increase);
        if ts.rate < before then Metrics.Counter.inc (Lazy.force m_decreases)
        else if ts.rate > before then
          Metrics.Counter.inc (Lazy.force m_increases);
        (* Only an adjustment starts the interval: an observation that
           moved nothing must not mask a high one right behind it. *)
        if not (Float.equal ts.rate before) then begin
          ts.last_adjust <- now;
          Metrics.Gauge.set (tenant_rate_gauge tenant) ts.rate;
          Metrics.Gauge.set (Lazy.force g_rate) (min_rate_over_tenants t)
        end
      end)

let admit t ~tenant =
  Mutex.protect t.mutex (fun () ->
      let ts = state t tenant in
      if ts.rate >= 1.0 then true else Rng.float_unit t.rng < ts.rate)

let note t ~tenant ~offered ~admitted =
  if offered > 0 then begin
    Mutex.protect t.mutex (fun () ->
        let ts = state t tenant in
        ts.offered <- ts.offered + offered;
        ts.admitted <- ts.admitted + admitted);
    Metrics.Counter.inc ~by:(float_of_int offered) (Lazy.force m_offered);
    if admitted < offered then
      Metrics.Counter.inc
        ~by:(float_of_int (offered - admitted))
        (Lazy.force m_sampled_out)
  end

type snapshot = { rate : float; s_offered : int; s_admitted : int }

let snapshot t ~tenant =
  Mutex.protect t.mutex (fun () ->
      match Hashtbl.find_opt t.tbl tenant with
      | None -> { rate = 1.0; s_offered = 0; s_admitted = 0 }
      | Some ts ->
          { rate = ts.rate; s_offered = ts.offered; s_admitted = ts.admitted })

let admitted_fraction s =
  if s.s_offered <= 0 then 1.0
  else float_of_int s.s_admitted /. float_of_int s.s_offered

let rate t ~tenant = (snapshot t ~tenant).rate
