(** Steady-state theory of the M/M/1 FIFO queue.

    These closed forms are what classical queueing analysis offers in
    place of the paper's posterior inference; the library uses them as
    correctness oracles for the simulator (long-run simulated averages
    must converge to them) and as the "what if" comparison in the
    examples. All functions require [arrival_rate < service_rate] for
    stability unless noted; unstable inputs raise [Invalid_argument]. *)

val utilization : arrival_rate:float -> service_rate:float -> float
(** ρ = λ/μ (valid for any positive rates). *)

val mean_response_time : arrival_rate:float -> service_rate:float -> float
(** W = 1/(μ-λ): mean waiting + service time. *)

val mean_waiting_time : arrival_rate:float -> service_rate:float -> float
(** Wq = ρ/(μ-λ): time in queue before service starts. *)

val response_time_cdf : arrival_rate:float -> service_rate:float -> float -> float
(** The sojourn time is Exponential(μ-λ); this is its CDF. *)
