(* Beyond M/M/1: inferring non-exponential service distributions.

   The paper's model is exponential everywhere, and §6 names general
   service distributions as the most useful generalization. This
   example runs the extended pipeline on a database whose service
   times are really lognormal (a few slow queries dominate). The
   exponential model overestimates the database's mean; General_stem,
   with a family per queue that AIC picks from exponential, gamma and
   lognormal, lands nearer it. AIC does not find the lognormal: it
   picks a gamma with shape below 1 for the database, more variable
   than an exponential but less than the truth, and a gamma for q0
   too, whose interarrival times are exponential.

   Run with: dune exec examples/nonexponential_service.exe *)

module Rng = Qnet_prob.Rng
module D = Qnet_prob.Distributions
module Topologies = Qnet_des.Topologies
module Network = Qnet_des.Network
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Stem = Qnet_core.Stem
module General_stem = Qnet_core.General_stem
module Service_model = Qnet_core.Service_model

let () =
  let rng = Rng.create ~seed:47 () in
  (* web tier (exponential) then a database whose service is lognormal:
     median fast, occasional slow queries; heavy tail (scv ~ 2.3) *)
  let db_truth = D.Lognormal (-2.6, 1.1) in
  let net = Topologies.tandem ~arrival_rate:5.0 ~service_rates:[ 12.0; 12.0 ] in
  let net = Network.with_service net 2 db_truth in
  let trace = Network.simulate_poisson rng net ~num_tasks:800 in
  (* half the requests logged: enough observed services for the shape
     to be identifiable through the imputation noise *)
  let mask = Obs.mask rng (Obs.Task_fraction 0.5) trace in

  Printf.printf "true db service: %s (mean %.4f, scv %.2f)\n\n"
    (Format.asprintf "%a" D.pp db_truth)
    (D.mean db_truth) (D.squared_cv db_truth);

  (* 1. the paper's exponential-only model *)
  let store = Store.of_trace ~observed:mask trace in
  let mm1 = Stem.run rng store in
  Printf.printf "exponential model:  db mean service = %.4f\n"
    mm1.Stem.mean_service.(2);

  (* 2. let AIC pick a family per queue, then fit it *)
  let store = Store.of_trace ~observed:mask trace in
  let families = General_stem.select_families rng store in
  Array.iteri
    (fun q f -> Printf.printf "AIC family for q%d: %s\n" q (General_stem.family_name f))
    families;
  let store = Store.of_trace ~observed:mask trace in
  let general = General_stem.run ~families rng store in
  Printf.printf "general model:      db mean service = %.4f\n"
    general.General_stem.mean_service.(2);
  let fitted = Service_model.service general.General_stem.model 2 in
  Printf.printf "fitted db service:  %s (scv %.2f)\n"
    (Format.asprintf "%a" D.pp fitted)
    (D.squared_cv fitted);
  Printf.printf
    "\nThe general model's mean is the nearer one, and its fit is more variable than an\n\
     exponential; but AIC picked a gamma, not the true lognormal, and the fitted\n\
     scv falls short of the true one, so the tail is only partly recovered.\n"
