module Rng = Qnet_prob.Rng
module D = Qnet_prob.Distributions
module Slice = Qnet_prob.Slice
module Store = Event_store
module Metrics = Qnet_obs.Metrics
module Clock = Qnet_obs.Clock

let m_sweep_seconds =
  lazy
    (Metrics.Histogram.create
       ~buckets:[| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]
       ~help:"Wall time of one slice-sampling sweep (general service models)"
       "qnet_general_sweep_seconds")

let m_events =
  lazy
    (Metrics.Counter.create
       ~help:"Events resampled by general-service slice sweeps"
       "qnet_general_events_resampled_total")

(* Shrink-rate telemetry: the diagnostics hub reads these back by name
   (Diagnostics.register_metrics force-registers the same families), so
   a rising shrinks/steps ratio is visible on the dashboard as the
   slice conditionals getting peaky relative to their windows. *)
let m_slice_steps =
  lazy
    (Metrics.Counter.create ~help:"Slice-sampler transitions attempted"
       "qnet_slice_steps_total")

let m_slice_shrinks =
  lazy
    (Metrics.Counter.create
       ~help:"Shrink rejections inside slice transitions"
       "qnet_slice_shrinks_total")

(* Feasibility window: the exponential kernel's own bounds code. *)
let window = Gibbs.window

let log_conditional store model f d =
  let lower, upper = window store f in
  let inside = d >= lower && (match upper with None -> true | Some u -> d <= u) in
  if not inside then neg_infinity
  else begin
    let qf = Store.queue store f in
    let b_f = Store.start_service store f in
    let acc = ref (Service_model.log_pdf model qf (d -. b_f)) in
    let e = Store.pi_inv store f in
    let g = Store.rho_inv store f in
    if e >= 0 then begin
      let qe = Store.queue store e in
      let de = Store.departure store e in
      let rho_e = Store.rho store e in
      let start_e =
        if rho_e < 0 || rho_e = f then d
        else Float.max d (Store.departure store rho_e)
      in
      acc := !acc +. Service_model.log_pdf model qe (de -. start_e)
    end;
    if g >= 0 && g <> e then begin
      let dg = Store.departure store g in
      let start_g = Float.max (Store.arrival store g) d in
      acc := !acc +. Service_model.log_pdf model qf (dg -. start_g)
    end;
    !acc
  end

let degenerate_width = 1e-12

let resample_event rng store model f =
  if Store.observed store f then
    invalid_arg "General_gibbs.resample_event: event is observed";
  let lower, upper = window store f in
  match upper with
  | None ->
      (* exact draw from the service distribution's tail case *)
      let s = D.sample rng (Service_model.service model (Store.queue store f)) in
      let s = if s > 0.0 then s else Float.min_float in
      Store.set_departure store f (lower +. s)
  | Some u ->
      if u -. lower <= degenerate_width then Store.set_departure store f lower
      else begin
        let density d = log_conditional store model f d in
        (* keep the slice seed strictly inside the window: densities
           like the lognormal vanish at zero service *)
        let pad = 1e-9 *. (u -. lower) in
        let current =
          Float.max (lower +. pad) (Float.min (u -. pad) (Store.departure store f))
        in
        let current =
          if Float.is_finite (density current) then current
          else 0.5 *. (lower +. u)
        in
        if Float.is_finite (density current) then begin
          let x, shrinks =
            Slice.step_stats rng ~log_density:density ~lower ~upper:u ~current
          in
          if Metrics.enabled () then begin
            Metrics.Counter.inc (Lazy.force m_slice_steps);
            if shrinks > 0 then
              Metrics.Counter.inc ~by:(float_of_int shrinks)
                (Lazy.force m_slice_shrinks)
          end;
          Store.set_departure store f x
        end
        (* else: pathological corner (measure zero) — keep the state *)
      end

let sweep rng store model =
  let order = Store.latent store in
  if not (Metrics.enabled ()) then
    Array.iter (fun f -> resample_event rng store model f) order
  else begin
    let t0 = Clock.now () in
    Array.iter (fun f -> resample_event rng store model f) order;
    Metrics.Histogram.observe (Lazy.force m_sweep_seconds) (Clock.now () -. t0);
    Metrics.Counter.inc ~by:(float_of_int (Array.length order)) (Lazy.force m_events)
  end

let run ~sweeps rng store model =
  if sweeps < 0 then invalid_arg "General_gibbs.run: negative sweep count";
  for _ = 1 to sweeps do
    sweep rng store model
  done
