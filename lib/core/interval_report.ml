module Store = Event_store

type queue_window = {
  queue : int;
  arrivals : int;
  mean_waiting : float;
  mean_service : float;
  utilization : float;
}

type t = { window : float * float; queues : queue_window array }

let snapshot store ~window:(t0, t1) =
  if not (Float.is_finite t0 && Float.is_finite t1 && t0 < t1) then
    invalid_arg "Interval_report.snapshot: bad window";
  let nq = Store.num_queues store in
  let count = Array.make nq 0 in
  let wait = Array.make nq 0.0 in
  let serv = Array.make nq 0.0 in
  let busy = Array.make nq 0.0 in
  for i = 0 to Store.num_events store - 1 do
    let q = Store.queue store i in
    let a = Store.arrival store i in
    if a >= t0 && a < t1 then begin
      count.(q) <- count.(q) + 1;
      wait.(q) <- wait.(q) +. Store.waiting store i;
      serv.(q) <- serv.(q) +. Store.service store i
    end;
    (* busy time: overlap of the service interval with the window *)
    let s_start = Store.start_service store i in
    let s_end = Store.departure store i in
    let overlap = Float.min t1 s_end -. Float.max t0 s_start in
    if overlap > 0.0 then busy.(q) <- busy.(q) +. overlap
  done;
  let width = t1 -. t0 in
  {
    window = (t0, t1);
    queues =
      Array.init nq (fun q ->
          {
            queue = q;
            arrivals = count.(q);
            mean_waiting =
              (if count.(q) = 0 then 0.0 else wait.(q) /. float_of_int count.(q));
            mean_service =
              (if count.(q) = 0 then 0.0 else serv.(q) /. float_of_int count.(q));
            utilization = busy.(q) /. width;
          });
  }

let posterior ?(sweeps = 60) ?(burn_in = 20) rng store params ~window =
  if burn_in < 0 || burn_in >= sweeps then
    invalid_arg "Interval_report.posterior: burn_in must be in [0, sweeps)";
  let nq = Store.num_queues store in
  let kept = float_of_int (sweeps - burn_in) in
  let arrivals = Array.make nq 0.0 in
  let wait = Array.make nq 0.0 in
  let serv = Array.make nq 0.0 in
  let util = Array.make nq 0.0 in
  for sweep = 1 to sweeps do
    Gibbs.sweep rng store params;
    if sweep > burn_in then begin
      let snap = snapshot store ~window in
      Array.iter
        (fun qw ->
          let q = qw.queue in
          arrivals.(q) <- arrivals.(q) +. (float_of_int qw.arrivals /. kept);
          wait.(q) <- wait.(q) +. (qw.mean_waiting /. kept);
          serv.(q) <- serv.(q) +. (qw.mean_service /. kept);
          util.(q) <- util.(q) +. (qw.utilization /. kept))
        snap.queues
    end
  done;
  {
    window;
    queues =
      Array.init nq (fun q ->
          {
            queue = q;
            arrivals = int_of_float (Float.round arrivals.(q));
            mean_waiting = wait.(q);
            mean_service = serv.(q);
            utilization = util.(q);
          });
  }

let busiest t =
  if Array.length t.queues = 0 then invalid_arg "Interval_report.busiest: empty";
  Array.fold_left
    (fun best qw -> if qw.utilization > best.utilization then qw else best)
    t.queues.(0) t.queues

let pp ppf t =
  let t0, t1 = t.window in
  Format.fprintf ppf "window [%.3f, %.3f):@." t0 t1;
  Format.fprintf ppf "%6s %9s %12s %12s %8s@." "queue" "arrivals" "mean-wait"
    "mean-serv" "util";
  Array.iter
    (fun qw ->
      Format.fprintf ppf "%6d %9d %12.5f %12.5f %8.3f@." qw.queue qw.arrivals
        qw.mean_waiting qw.mean_service qw.utilization)
    t.queues
