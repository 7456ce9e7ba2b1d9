(** Univariate distributions over the reals.

    A value of type {!t} is a distribution description; all operations
    ([sample], [log_pdf], [cdf], ...) dispatch on it. Service-time and
    interarrival distributions throughout the library are values of
    this type, which is what lets the simulator generate workloads the
    M/M/1 model does {e not} match (misspecification experiments).

    Conventions: rates are strictly positive; [log_pdf] returns
    [neg_infinity] outside the support; [quantile] requires its
    argument in [(0, 1)] (and additionally accepts 0 and 1 where the
    support boundary is finite). *)

type t =
  | Exponential of float  (** [Exponential rate]; mean [1/rate]. *)
  | Uniform of float * float  (** [Uniform (lo, hi)] with [lo < hi]. *)
  | Gamma of float * float  (** [Gamma (shape, rate)]. *)
  | Erlang of int * float  (** [Erlang (k, rate)] = Gamma with integer shape. *)
  | Normal of float * float  (** [Normal (mean, stddev)], [stddev > 0]. *)
  | Lognormal of float * float
      (** [Lognormal (mu, sigma)]: [exp X] with [X ~ Normal (mu, sigma)]. *)
  | Deterministic of float  (** Point mass. *)
  | Pareto of float * float
      (** [Pareto (scale, shape)]: support [[scale, inf)], [shape > 0]. *)
  | Hyperexponential of (float * float) array
      (** [Hyperexponential [|(p1, r1); ...|]]: mixture of exponentials
          with mixing weights [pi] (normalized internally) and rates
          [ri]. High-variance service model. *)
  | Truncated_exponential of float * float
      (** [Truncated_exponential (rate, width)]: exponential with the
          given rate conditioned on [[0, width]]. The paper's
          [TrExp(mu; N)] (Figure 3, Eq. 4). [rate] may be any real
          (negative rates give a density increasing towards [width];
          zero degenerates to uniform); [width > 0]. *)

val validate : t -> (unit, string) result
(** [validate d] checks the parameter constraints listed above. *)

val sample : Rng.t -> t -> float
(** [sample rng d] draws one variate. Gamma uses Marsaglia–Tsang;
    Normal uses the polar method; everything else inverts the CDF. *)

val log_pdf : t -> float -> float
(** [log_pdf d x] is the log-density at [x] ([neg_infinity] off the
    support; [Deterministic] returns [0.] at the atom, [neg_infinity]
    elsewhere — it has no density, the value is only useful for
    support checks). *)

val cdf : t -> float -> float
(** [cdf d x] is P(X <= x). *)

val quantile : t -> float -> float
(** [quantile d p] is the generalized inverse CDF. Closed-form where
    available, monotone bisection against {!cdf} otherwise. *)

val mean : t -> float
(** Expected value ([nan] where undefined, e.g. Pareto with shape <= 1). *)

val variance : t -> float
(** Variance ([nan] or [infinity] where undefined/infinite). *)

val squared_cv : t -> float
(** Squared coefficient of variation [variance / mean^2]; 1 for the
    exponential family, > 1 for hyperexponential, < 1 for Erlang.
    Drives the misspecification experiments. *)

val pp : Format.formatter -> t -> unit
(** Human-readable formatter, e.g. [Exp(rate=5.)]. *)
