module D = Qnet_prob.Distributions
module Fitting = Qnet_prob.Fitting
module Store = Event_store

type family = Exponential | Erlang of int | Gamma | Lognormal

let family_name = function
  | Exponential -> "exponential"
  | Erlang k -> Printf.sprintf "erlang-%d" k
  | Gamma -> "gamma"
  | Lognormal -> "lognormal"

type config = {
  iterations : int;
  burn_in : int;
  warmup_sweeps : int;
  min_queue_events : int;
}

let default_config =
  { iterations = 200; burn_in = 100; warmup_sweeps = 10; min_queue_events = 3 }

type result = {
  model : Service_model.t;
  model_last : Service_model.t;
  mean_service : float array;
  history_mean_service : float array array;
}

(* a member of [family] with the given mean, used as the start *)
let family_with_mean family mean =
  let mean = Float.max mean 1e-9 in
  match family with
  | Exponential -> D.Exponential (1.0 /. mean)
  | Erlang k -> D.Erlang (k, float_of_int k /. mean)
  | Gamma -> D.Gamma (1.0, 1.0 /. mean)
  | Lognormal ->
      let sigma = 0.5 in
      D.Lognormal (log mean -. (0.5 *. sigma *. sigma), sigma)

let fit family samples =
  match family with
  | Exponential -> Fitting.fit_exponential samples
  | Erlang k -> Fitting.fit_erlang ~shape:k samples
  | Gamma -> Fitting.fit_gamma samples
  | Lognormal -> Fitting.fit_lognormal samples

let services_by_queue store =
  let nq = Store.num_queues store in
  let buckets = Array.make nq [] in
  for i = Store.num_events store - 1 downto 0 do
    let s = Store.service store i in
    if s > 0.0 then buckets.(Store.queue store i) <- s :: buckets.(Store.queue store i)
  done;
  Array.map Array.of_list buckets

let m_step ~families ~min_queue_events ~previous store =
  let samples = services_by_queue store in
  let services =
    Array.mapi
      (fun q old ->
        if Array.length samples.(q) >= min_queue_events then
          try fit families.(q) samples.(q) with Invalid_argument _ -> old
        else old)
      previous.Service_model.services
  in
  Service_model.create ~services ~arrival_queue:previous.Service_model.arrival_queue

let run ?(config = default_config) ?init ~families rng store =
  let nq = Store.num_queues store in
  if Array.length families <> nq then
    invalid_arg "General_stem.run: one family per queue required";
  if config.iterations < 1 then invalid_arg "General_stem.run: need iterations >= 1";
  if config.burn_in < 0 || config.burn_in >= config.iterations then
    invalid_arg "General_stem.run: burn_in must be in [0, iterations)";
  let model0 =
    match init with
    | Some m -> m
    | None ->
        let guess = Stem.initial_guess store in
        Service_model.create
          ~services:
            (Array.init nq (fun q ->
                 family_with_mean families.(q) (Params.mean_service guess q)))
          ~arrival_queue:(Store.arrival_queue store)
  in
  (match Init.feasible ~target:(Service_model.to_params_approx model0) store with
  | Ok () -> ()
  | Error msg -> failwith ("General_stem.run: initialization failed: " ^ msg));
  General_gibbs.run ~sweeps:config.warmup_sweeps rng store model0;
  let model = ref model0 in
  let history = Array.make_matrix config.iterations nq nan in
  for it = 0 to config.iterations - 1 do
    General_gibbs.sweep rng store !model;
    model :=
      m_step ~families ~min_queue_events:config.min_queue_events ~previous:!model
        store;
    for q = 0 to nq - 1 do
      history.(it).(q) <- Service_model.mean_service !model q
    done
  done;
  let kept = config.iterations - config.burn_in in
  let mean_service =
    Array.init nq (fun q ->
        let acc = ref 0.0 in
        for it = config.burn_in to config.iterations - 1 do
          acc := !acc +. history.(it).(q)
        done;
        !acc /. float_of_int kept)
  in
  (* report a model at the averaged means, keeping the last iterate's
     shape parameters *)
  let averaged =
    Service_model.create
      ~services:
        (Array.init nq (fun q ->
             let last = Service_model.service !model q in
             let target = mean_service.(q) in
             match last with
             | D.Exponential _ -> D.Exponential (1.0 /. target)
             | D.Erlang (k, _) -> D.Erlang (k, float_of_int k /. target)
             | D.Gamma (shape, _) -> D.Gamma (shape, shape /. target)
             | D.Lognormal (_, sigma) ->
                 D.Lognormal (log target -. (0.5 *. sigma *. sigma), sigma)
             | other -> other))
      ~arrival_queue:(Store.arrival_queue store)
  in
  {
    model = averaged;
    model_last = !model;
    mean_service;
    history_mean_service = history;
  }

let num_params = function
  | Exponential -> 1
  | Erlang _ -> 1 (* the shape is fixed, only the rate is fit *)
  | Gamma | Lognormal -> 2

let select_families ?(candidates = [ Exponential; Gamma; Lognormal ])
    ?(pilot_iterations = 100) rng store =
  if candidates = [] then invalid_arg "General_stem.select_families: no candidates";
  let pilot_config =
    {
      Stem.default_config with
      Stem.iterations = pilot_iterations;
      burn_in = pilot_iterations / 2;
    }
  in
  let _ = Stem.run ~config:pilot_config rng store in
  let samples = services_by_queue store in
  Array.init (Store.num_queues store) (fun q ->
      if Array.length samples.(q) < 8 then Exponential
      else begin
        let scored =
          List.filter_map
            (fun family ->
              match fit family samples.(q) with
              | d ->
                  Some
                    ( Qnet_prob.Fitting.aic d ~num_params:(num_params family)
                        samples.(q),
                      family )
              | exception Invalid_argument _ -> None)
            candidates
        in
        match List.sort compare scored with
        | (_, best) :: _ -> best
        | [] -> Exponential
      end)
