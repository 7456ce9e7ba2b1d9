module D = Qnet_prob.Distributions
module Fsm = Qnet_fsm.Fsm
module Network = Qnet_des.Network

type queue_report = {
  queue : int;
  visit_ratio : float;
  effective_arrival_rate : float;
  service_rate : float;
  utilization : float;
  mean_waiting_time : float;
  mean_response_time : float;
}

let analyze ~arrival_rate net =
  if arrival_rate <= 0.0 then invalid_arg "Jackson.analyze: arrival_rate must be > 0";
  let fsm = Network.fsm net in
  let q0 = Network.arrival_queue net in
  let visits = Fsm.expected_visits fsm in
  let reports = ref [] in
  for q = Network.num_queues net - 1 downto 0 do
    if q <> q0 then begin
      let service_rate =
        match Network.service net q with
        | D.Exponential mu -> mu
        | d ->
            invalid_arg
              (Format.asprintf
                 "Jackson.analyze: queue %d has non-exponential service %a" q D.pp d)
      in
      let v = visits.(q) in
      let lam = arrival_rate *. v in
      let rho = lam /. service_rate in
      let wq, w =
        if Float.equal v 0.0 then (0.0, 0.0)
        else if rho >= 1.0 then (infinity, infinity)
        else
          ( rho /. (service_rate -. lam),
            1.0 /. (service_rate -. lam) )
      in
      reports :=
        {
          queue = q;
          visit_ratio = v;
          effective_arrival_rate = lam;
          service_rate;
          utilization = rho;
          mean_waiting_time = wq;
          mean_response_time = w;
        }
        :: !reports
    end
  done;
  Array.of_list !reports

let bottleneck reports =
  if Array.length reports = 0 then invalid_arg "Jackson.bottleneck: empty report";
  Array.fold_left
    (fun best r -> if r.utilization > best.utilization then r else best)
    reports.(0) reports
