(** Open Jackson network analysis.

    For a network of exponential single-server FIFO queues with
    probabilistic (FSM) routing and Poisson external arrivals, the
    stationary distribution is product-form: each queue behaves as an
    independent M/M/1 with effective arrival rate
    [λ_q = λ · v_q] where [v_q] is the expected number of visits a
    task makes to queue [q]. This module computes those visit ratios
    from the routing FSM and derives per-queue steady-state metrics —
    the classical analysis the paper's inference method is compared
    against. *)

type queue_report = {
  queue : int;
  visit_ratio : float;
  effective_arrival_rate : float;
  service_rate : float;
  utilization : float;
  mean_waiting_time : float;  (** [infinity] for an unstable queue *)
  mean_response_time : float;  (** [infinity] for an unstable queue *)
}

val analyze :
  arrival_rate:float -> Qnet_des.Network.t -> queue_report array
(** [analyze ~arrival_rate net] solves the traffic equations for every
    queue except the arrival queue [q0] (whose "service" is the
    interarrival process). Requires every service distribution to be
    exponential; raises [Invalid_argument] otherwise (Jackson's
    theorem does not apply). Unstable queues are reported with
    infinite delays rather than raising. *)

val bottleneck : queue_report array -> queue_report
(** The queue with the highest utilization. *)
