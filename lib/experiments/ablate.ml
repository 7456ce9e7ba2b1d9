module Rng = Qnet_prob.Rng
module Topologies = Qnet_des.Topologies
module Network = Qnet_des.Network
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Init = Qnet_core.Init
module Gibbs = Qnet_core.Gibbs
module Stem = Qnet_core.Stem
module Mcem = Qnet_core.Mcem

type init_row = {
  strategy : string;
  sweeps_to_stationary : int;
  initial_llh : float;
  final_llh : float;
}

let strategies =
  [
    ("earliest", Init.Earliest);
    ("latest", Init.Latest);
    ("centered", Init.Centered);
    ("targeted", Init.Targeted);
  ]

let run_init_ablation ?(seed = 4) ?(num_tasks = 400) ?(fraction = 0.05)
    ?(max_sweeps = 400) () =
  let net =
    Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(2, 1, 4) ~service_rate:5.0 ()
  in
  let truth = Params.of_network net in
  let rng = Rng.create ~seed () in
  let trace = Network.simulate_poisson rng net ~num_tasks in
  let mask = Obs.mask rng (Obs.Task_fraction fraction) trace in
  (* stationary band: from a long run started at the ground truth state
     (which is a perfect posterior sample) *)
  let band =
    let store = Store.of_trace ~observed:mask trace in
    let rng = Rng.create ~seed:(seed + 1) () in
    let llhs =
      Array.init 200 (fun _ ->
          Gibbs.sweep rng store truth;
          Store.log_likelihood store truth)
    in
    let tail = Array.sub llhs 100 100 in
    let lo = Qnet_prob.Statistics.quantile tail 0.01 in
    let hi = Qnet_prob.Statistics.quantile tail 0.99 in
    let width = Float.max (hi -. lo) 1.0 in
    (lo -. width, hi +. width)
  in
  let lo_band, hi_band = band in
  List.map
    (fun (name, strategy) ->
      let store = Store.of_trace ~observed:mask trace in
      (* scramble, then init *)
      Array.iter
        (fun i -> Store.set_departure store i 0.0)
        (Store.unobserved_events store);
      (match Init.feasible ~strategy ~target:truth store with
      | Ok () -> ()
      | Error m -> failwith ("init ablation: " ^ m));
      let initial_llh = Store.log_likelihood store truth in
      let rng = Rng.create ~seed:(seed + 2) () in
      let reached = ref max_sweeps in
      let llh = ref initial_llh in
      (try
         for sweep = 1 to max_sweeps do
           Gibbs.sweep rng store truth;
           llh := Store.log_likelihood store truth;
           if !llh >= lo_band && !llh <= hi_band then begin
             reached := sweep;
             raise Exit
           end
         done
       with Exit -> ());
      {
        strategy = name;
        sweeps_to_stationary = !reached;
        initial_llh;
        final_llh = !llh;
      })
    strategies

let print_init_report rows =
  Common.print_header "Ablation A1: initialization strategy vs Gibbs burn-in";
  Common.print_row [ "strategy"; "sweeps"; "init-llh"; "final-llh" ];
  List.iter
    (fun r ->
      Common.print_row
        [
          r.strategy;
          string_of_int r.sweeps_to_stationary;
          Printf.sprintf "%.1f" r.initial_llh;
          Printf.sprintf "%.1f" r.final_llh;
        ])
    rows

type em_row = { algorithm : string; mean_service_error : float; seconds : float }

let run_em_ablation ?(seed = 5) ?(num_tasks = 400) ?(fraction = 0.1) () =
  let net = Topologies.tandem ~arrival_rate:10.0 ~service_rates:[ 15.0; 12.0 ] in
  let truths = [| 0.1; 1.0 /. 15.0; 1.0 /. 12.0 |] in
  let rng = Rng.create ~seed () in
  let trace = Network.simulate_poisson rng net ~num_tasks in
  let mask = Obs.mask rng (Obs.Task_fraction fraction) trace in
  let error mean_service =
    let acc = ref 0.0 in
    Array.iteri (fun q t -> acc := !acc +. Float.abs (mean_service.(q) -. t)) truths;
    !acc /. 3.0
  in
  let time f =
    let t0 = Sys.time () in
    let x = f () in
    (x, Sys.time () -. t0)
  in
  let stem_row =
    let store = Store.of_trace ~observed:mask trace in
    let rng = Rng.create ~seed:(seed + 1) () in
    let result, seconds =
      time (fun () ->
          Stem.run ~config:{ Stem.default_config with iterations = 200; burn_in = 100 }
            rng store)
    in
    {
      algorithm = "StEM (200x1)";
      mean_service_error = error result.Stem.mean_service;
      seconds;
    }
  in
  let mcem_row =
    let store = Store.of_trace ~observed:mask trace in
    let rng = Rng.create ~seed:(seed + 1) () in
    let result, seconds =
      time (fun () ->
          Mcem.run
            ~config:
              {
                Mcem.default_config with
                em_iterations = 10;
                sweeps_per_iteration = 20;
                inner_burn_in = 5;
              }
            rng store)
    in
    {
      algorithm = "MCEM (10x20)";
      mean_service_error = error result.Mcem.mean_service;
      seconds;
    }
  in
  [ stem_row; mcem_row ]

let print_em_report rows =
  Common.print_header "Ablation A2: StEM vs Monte Carlo EM (matched sweep budget)";
  Common.print_row [ "algorithm"; "mean-|err|"; "seconds" ];
  List.iter
    (fun r ->
      Common.print_row
        [
          r.algorithm;
          Common.cell_f r.mean_service_error;
          Printf.sprintf "%.2f" r.seconds;
        ])
    rows
