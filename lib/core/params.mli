(** Parameters of an M/M/1 queueing-network model: one exponential
    rate per queue. Following the paper's convention, the arrival
    queue [q0]'s "service" rate {e is} the system arrival rate λ, so a
    single array covers both λ and every μ_q. *)

type t = {
  rates : float array;  (** rate of queue [q]; index [arrival_queue] holds λ *)
  arrival_queue : int;
}

val create : rates:float array -> arrival_queue:int -> t
(** Validates: all rates strictly positive and finite,
    [arrival_queue] in range. *)

val of_network : Qnet_des.Network.t -> t
(** Extract the ground-truth rates of a network whose services are all
    exponential. Raises [Invalid_argument] otherwise. *)

val num_queues : t -> int
val rate : t -> int -> float
val arrival_rate : t -> float
val mean_service : t -> int -> float
(** [1 /. rate]. *)

val map_rates : t -> (int -> float -> float) -> t

val distance : t -> t -> float
(** Max absolute difference in mean service times — the convergence
    metric used by the EM drivers. *)

val pp : Format.formatter -> t -> unit
