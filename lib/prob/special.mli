(** Numerically careful special functions and log-space arithmetic.

    These are the primitives the samplers and densities are built on;
    they are written to stay accurate in the regimes queueing inference
    actually hits (tiny intervals, huge rates, near-cancelling
    exponentials). *)

val log_sum_exp : float array -> float
(** [log_sum_exp xs] is [log (sum_i (exp xs.(i)))], stable. Returns
    [neg_infinity] on an empty array. *)

val log_gamma : float -> float
(** [log_gamma x] is the natural log of the Gamma function for
    [x > 0] (Lanczos approximation, ~1e-13 relative accuracy). *)

val log_factorial : int -> float
(** [log_factorial n] is [log n!], exact summation below 32 and
    [log_gamma] above. *)

val erf : float -> float
(** Error function, Abramowitz–Stegun 7.1.26 refined by a series /
    continued-fraction split; absolute error below 1e-12. *)

val erfc : float -> float
(** Complementary error function [1 - erf x], accurate for large [x]. *)

val std_normal_cdf : float -> float
(** CDF of the standard normal distribution. *)

val std_normal_quantile : float -> float
(** Inverse CDF of the standard normal (Acklam's rational
    approximation polished by one Halley step); requires the argument
    to be in [(0, 1)]. *)

val lower_incomplete_gamma_regularized : float -> float -> float
(** [lower_incomplete_gamma_regularized a x] is P(a, x) = γ(a,x)/Γ(a)
    for [a > 0], [x >= 0]; series for [x < a +. 1.], continued
    fraction otherwise. This is the CDF of the Gamma distribution. *)

val digamma : float -> float
(** ψ(x) = d/dx log Γ(x) for [x > 0]: recurrence below 6, asymptotic
    series above. Needed by the Gamma maximum-likelihood fit. *)

val trigamma : float -> float
(** ψ′(x) for [x > 0] (same recurrence/asymptotic structure); the
    Newton step of the Gamma fit. *)
