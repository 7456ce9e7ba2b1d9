module Rng = Qnet_prob.Rng
module D = Qnet_prob.Distributions
module Stats = Qnet_prob.Statistics
module Store = Event_store

type config = {
  sweeps : int;
  burn_in : int;
  thin : int;
  prior_shape : float;
  prior_rate : float;
}

let default_config =
  { sweeps = 400; burn_in = 200; thin = 2; prior_shape = 0.5; prior_rate = 0.01 }

type result = {
  mean_service : float array;
  service_interval : (float * float) array;
  mean_waiting : float array;
  waiting_interval : (float * float) array;
  rate_samples : float array array;
  ess : float array;
}

let run ?(config = default_config) ?init rng store =
  if config.sweeps < 2 then invalid_arg "Bayes.run: need at least two sweeps";
  if config.burn_in < 0 || config.burn_in >= config.sweeps then
    invalid_arg "Bayes.run: burn_in must be in [0, sweeps)";
  if config.thin < 1 then invalid_arg "Bayes.run: thin must be >= 1";
  if config.prior_shape <= 0.0 || config.prior_rate <= 0.0 then
    invalid_arg "Bayes.run: prior must be proper (shape, rate > 0)";
  let nq = Store.num_queues store in
  let params0 = match init with Some p -> p | None -> Stem.initial_guess store in
  (match Init.feasible ~target:params0 store with
  | Ok () -> ()
  | Error msg -> failwith ("Bayes.run: initialization failed: " ^ msg));
  let params = ref params0 in
  let samples = Array.make nq [] in
  let waiting_samples = Array.make nq [] in
  for sweep = 1 to config.sweeps do
    (* latent times given rates *)
    Gibbs.sweep rng store !params;
    (* rates given latent times: conjugate Gamma conditionals *)
    let stats = Store.service_sufficient_stats store in
    params :=
      Params.map_rates !params (fun q _ ->
          let count, total = stats.(q) in
          let shape = config.prior_shape +. float_of_int count in
          let rate = config.prior_rate +. total in
          let draw = D.sample rng (D.Gamma (shape, rate)) in
          Float.max draw 1e-12);
    if sweep > config.burn_in && (sweep - config.burn_in) mod config.thin = 0 then begin
      for q = 0 to nq - 1 do
        samples.(q) <- Params.rate !params q :: samples.(q)
      done;
      let w = Store.mean_waiting_by_queue store in
      for q = 0 to nq - 1 do
        waiting_samples.(q) <- w.(q) :: waiting_samples.(q)
      done
    end
  done;
  let rate_samples = Array.map (fun l -> Array.of_list l) samples in
  let mean_service =
    Array.map (fun xs -> Stats.mean (Array.map (fun r -> 1.0 /. r) xs)) rate_samples
  in
  let service_interval =
    Array.map
      (fun xs ->
        let services = Array.map (fun r -> 1.0 /. r) xs in
        (Stats.quantile services 0.05, Stats.quantile services 0.95))
      rate_samples
  in
  let waiting_arrays = Array.map Array.of_list waiting_samples in
  let mean_waiting = Array.map Stats.mean waiting_arrays in
  let waiting_interval =
    Array.map
      (fun xs -> (Stats.quantile xs 0.05, Stats.quantile xs 0.95))
      waiting_arrays
  in
  let ess = Array.map Stats.effective_sample_size rate_samples in
  { mean_service; service_interval; mean_waiting; waiting_interval; rate_samples; ess }
