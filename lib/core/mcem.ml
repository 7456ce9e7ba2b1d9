module Store = Event_store

type config = {
  em_iterations : int;
  sweeps_per_iteration : int;
  inner_burn_in : int;
  init_strategy : Init.strategy;
  min_queue_events : int;
}

let default_config =
  {
    em_iterations = 20;
    sweeps_per_iteration = 20;
    inner_burn_in = 5;
    init_strategy = Init.Targeted;
    min_queue_events = 1;
  }

type result = {
  params : Params.t;
  history : Params.t array;
  mean_service : float array;
}

let run ?(config = default_config) ?init rng store =
  if config.em_iterations < 1 then invalid_arg "Mcem.run: need at least one iteration";
  if config.inner_burn_in < 0 || config.inner_burn_in >= config.sweeps_per_iteration
  then invalid_arg "Mcem.run: inner_burn_in must be in [0, sweeps_per_iteration)";
  let params0 = match init with Some p -> p | None -> Stem.initial_guess store in
  (match Init.feasible ~strategy:config.init_strategy ~target:params0 store with
  | Ok () -> ()
  | Error msg -> failwith ("Mcem.run: initialization failed: " ^ msg));
  let nq = Store.num_queues store in
  let history = Array.make config.em_iterations params0 in
  let params = ref params0 in
  for it = 0 to config.em_iterations - 1 do
    (* Monte Carlo E-step: average sufficient statistics over the
       retained inner sweeps. *)
    let counts = Array.make nq 0.0 in
    let sums = Array.make nq 0.0 in
    let kept = config.sweeps_per_iteration - config.inner_burn_in in
    for sweep = 0 to config.sweeps_per_iteration - 1 do
      Gibbs.sweep rng store !params;
      if sweep >= config.inner_burn_in then begin
        let stats = Store.service_sufficient_stats store in
        for q = 0 to nq - 1 do
          let c, s = stats.(q) in
          counts.(q) <- counts.(q) +. (float_of_int c /. float_of_int kept);
          sums.(q) <- sums.(q) +. (s /. float_of_int kept)
        done
      end
    done;
    (* M-step on the averaged statistics. *)
    params :=
      Params.map_rates !params (fun q prev ->
          if
            counts.(q) >= float_of_int config.min_queue_events
            && sums.(q) > 0.0
          then counts.(q) /. sums.(q)
          else prev);
    history.(it) <- !params
  done;
  {
    params = !params;
    history;
    mean_service = Array.init nq (fun q -> Params.mean_service !params q);
  }
