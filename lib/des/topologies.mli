(** Ready-made network topologies, including the ones used in the
    paper's experiments. *)

val tandem :
  arrival_rate:float -> service_rates:float list -> Network.t
(** [tandem ~arrival_rate ~service_rates] is a linear chain of M/M/1
    queues: q0 (arrivals) followed by one queue per service rate. *)

val three_tier :
  ?balancer_weights:float array array ->
  arrival_rate:float ->
  tier_sizes:int * int * int ->
  service_rate:float ->
  unit ->
  Network.t
(** [three_tier ~arrival_rate ~tier_sizes:(n1, n2, n3) ~service_rate ()]
    is the paper's Figure 1 network without the network queues: tasks
    enter at q0, visit one uniformly chosen server in each of three
    tiers (each tier a bank of parallel single-server M/M/1 queues,
    all with rate [service_rate]), then leave. Queue layout:
    0 = q0, 1..n1 = tier 1, n1+1..n1+n2 = tier 2, then tier 3.
    [balancer_weights], when given, overrides the uniform choice with
    per-tier weight vectors (length n1, n2, n3). *)

val paper_structures : (string * Network.t) list
(** The five synthetic structures of §5.1: three-tier networks with
    tier sizes drawn from {1, 2, 4} arranged to move the bottleneck,
    all with λ = 10 and μ = 5 per server (so a 1-server tier is
    heavily overloaded, 2-server tier barely overloaded, 4-server tier
    moderately loaded, as in the paper). *)

val single_mm1 : arrival_rate:float -> service_rate:float -> Network.t
(** One M/M/1 queue behind q0 — the smallest useful network, used
    heavily in tests. *)

val feedback :
  arrival_rate:float -> service_rate:float -> loop_prob:float -> Network.t
(** A single queue that tasks revisit with probability [loop_prob]
    after each service — exercises FSMs with cycles and tasks with
    repeated visits to one queue. *)
