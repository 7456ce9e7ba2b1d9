(* The paper's introduction motivates "What happened?" questions:
   during the slowest 1% of requests, which component carried the
   load? A steady-state analysis cannot answer this — it has no notion
   of particular requests — but the posterior over the latent event
   times can: after fitting, every task has imputed per-queue waiting
   times, so we can condition on the slow tail directly.

   The workload here is bursty (a two-phase MMPP): most of the time
   the system is calm, but during bursts the middle tier's queue
   explodes. The diagnosis should show that slow requests spend their
   extra time waiting at that tier — not that any component got
   intrinsically slower.

   Run with: dune exec examples/slow_request_diagnosis.exe *)

module Rng = Qnet_prob.Rng
module Workload = Qnet_des.Workload
module Network = Qnet_des.Network
module Topologies = Qnet_des.Topologies
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Stem = Qnet_core.Stem

let () =
  let rng = Rng.create ~seed:23 () in
  let net =
    Topologies.three_tier ~arrival_rate:6.0 ~tier_sizes:(3, 1, 3) ~service_rate:7.0 ()
  in
  (* bursty arrivals: calm phase at 3/s, bursts at 18/s *)
  let workload =
    Workload.Mmpp2 { rate0 = 3.0; rate1 = 18.0; switch01 = 0.05; switch10 = 0.2 }
  in
  let trace = Network.simulate_tasks rng net ~workload ~num_tasks:1500 in
  let mask = Obs.mask rng (Obs.Task_fraction 0.1) trace in
  let store = Store.of_trace ~observed:mask trace in
  let result = Stem.run rng store in
  (* refresh the imputation under the fitted parameters *)
  Qnet_core.Gibbs.run ~sweeps:50 rng store result.Stem.params;

  (* per task: imputed end-to-end response and per-queue waiting *)
  let nq = Store.num_queues store in
  let num_tasks = Store.num_tasks store in
  let response = Array.make num_tasks 0.0 in
  let task_wait = Array.make_matrix num_tasks nq 0.0 in
  for k = 0 to num_tasks - 1 do
    let events = Store.events_of_task store k in
    let entry = Store.departure store events.(0) in
    let last = events.(Array.length events - 1) in
    response.(k) <- Store.departure store last -. entry;
    Array.iter
      (fun i ->
        if i <> events.(0) then
          task_wait.(k).(Store.queue store i) <-
            task_wait.(k).(Store.queue store i) +. Store.waiting store i)
      events
  done;

  let threshold = Qnet_prob.Statistics.quantile response 0.99 in
  let slow = Array.to_list (Array.init num_tasks Fun.id)
             |> List.filter (fun k -> response.(k) >= threshold) in
  let fast = Array.to_list (Array.init num_tasks Fun.id)
             |> List.filter (fun k -> response.(k) < threshold) in
  Printf.printf "imputed response time: median %.3f, 99th percentile %.3f (%d slow tasks)\n\n"
    (Qnet_prob.Statistics.median response)
    threshold (List.length slow);

  let mean_wait tasks q =
    List.fold_left (fun acc k -> acc +. task_wait.(k).(q)) 0.0 tasks
    /. float_of_int (List.length tasks)
  in
  Printf.printf "%-10s %14s %14s %8s\n" "queue" "wait (slow 1%)" "wait (rest)" "ratio";
  for q = 1 to nq - 1 do
    let ws = mean_wait slow q and wf = mean_wait fast q in
    Printf.printf "%-10s %14.4f %14.4f %8s\n" (Network.name net q) ws wf
      (if wf > 1e-9 then Printf.sprintf "%.1fx" (ws /. wf) else "-")
  done;

  (* the tier with the largest slow/fast waiting ratio is where the
     slow requests queued *)
  let worst = ref 1 and worst_ratio = ref 0.0 in
  for q = 1 to nq - 1 do
    let r = mean_wait slow q -. mean_wait fast q in
    if r > !worst_ratio then begin
      worst := q;
      worst_ratio := r
    end
  done;
  Printf.printf
    "\nDiagnosis: the slowest 1%% of requests lost %.3fs extra at %s — a transient load\nspike at that tier, not an intrinsic slowdown (its service estimate is unchanged).\n"
    !worst_ratio (Network.name net !worst)
