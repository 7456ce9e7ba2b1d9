(** Maximum-likelihood fitting of service-time families.

    These are the M-steps of the generalized (non-exponential) EM
    drivers: given imputed service samples, fit the chosen family.
    Every function requires a non-empty array of strictly positive
    samples and raises [Invalid_argument] otherwise. *)

val fit_exponential : float array -> Distributions.t
(** Rate [n / Σx]. *)

val fit_erlang : shape:int -> float array -> Distributions.t
(** Erlang with the given (fixed, known) integer shape; the rate MLE
    is [shape · n / Σx]. *)

val fit_lognormal : float array -> Distributions.t
(** Closed form: [mu, sigma] are the mean and standard deviation of
    [log x]. Degenerate samples (all equal) get a floor of 1e-6 on
    sigma. *)

val fit_gamma : float array -> Distributions.t
(** Full Gamma MLE: shape by Newton iteration on
    [log k − ψ(k) = log x̄ − mean (log x)] (started from the
    Minka/moment approximation), then rate [k / x̄]. Falls back to the
    moment estimator if Newton leaves the domain. *)

val log_likelihood : Distributions.t -> float array -> float
(** Σ log pdf — used to compare fitted families (and by tests). *)

val aic : Distributions.t -> num_params:int -> float array -> float
(** Akaike information criterion [2k − 2 log L]; smaller is better.
    Lets callers select a service family per queue. *)
