(** Workload generators: the processes by which tasks enter the
    system. *)

type t =
  | Poisson of float
      (** Homogeneous Poisson arrivals with the given rate. *)
  | Ramp of { initial_rate : float; final_rate : float; duration : float }
      (** Nonhomogeneous Poisson whose rate rises linearly from
          [initial_rate] to [final_rate] over [[0, duration]] and then
          stays at [final_rate]. This reproduces the paper's §5.2
          "increasing the load linearly over 30 min" workload. *)
  | Mmpp2 of {
      rate0 : float;
      rate1 : float;
      switch01 : float;
      switch10 : float;
    }
      (** Two-phase Markov-modulated Poisson process: bursty arrivals.
          [switch01] is the rate of leaving phase 0, [switch10] of
          leaving phase 1. Used for the "brief spike in workload"
          diagnosis scenarios from the paper's introduction. *)
  | Interarrival of Qnet_prob.Distributions.t
      (** Renewal process with the given interarrival distribution. *)

val validate : t -> (unit, string) result

val generate : Qnet_prob.Rng.t -> t -> int -> float array
(** [generate rng w n] draws the first [n] task entry times, strictly
    increasing. *)
