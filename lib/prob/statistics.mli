(** Descriptive statistics used by the estimators, the experiment
    harness, and the test suite. *)

(** Streaming mean/variance accumulator (Welford's algorithm);
    numerically stable for long runs. *)
module Welford : sig
  type t

  val create : unit -> t

  val add : t -> float -> unit
  (** NaN inputs do not poison the accumulator: they are skipped and
      counted (see {!skipped}), so one corrupted sample in a long
      stream costs one observation, not the whole run's moments. *)

  val count : t -> int
  (** Number of accumulated (non-NaN) samples. *)

  val skipped : t -> int
  (** Number of NaN inputs dropped by {!add} so far. *)

  val mean : t -> float
  (** [nan] when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; [nan] for fewer than two samples. *)

  val stddev : t -> float
  val min : t -> float
  val max : t -> float
  val merge : t -> t -> t
  (** Combine two accumulators (Chan's parallel update). *)
end

val mean : float array -> float
(** Arithmetic mean; [nan] on empty input. *)

val variance : float array -> float
(** Unbiased sample variance; [nan] for fewer than two elements. *)

val stddev : float array -> float

val quantile : float array -> float -> float
(** [quantile xs p] for [p] in [[0,1]], linear interpolation between
    order statistics (type-7, the R default). Does not modify [xs].
    Raises [Invalid_argument] on empty input or [p] outside [[0,1]]. *)

val median : float array -> float

val histogram : ?bins:int -> float array -> (float * float * int) array
(** [histogram ~bins xs] is an equal-width histogram as
    [(lo, hi, count)] triples covering [[min xs, max xs]].
    Default 20 bins. *)

val ks_statistic_against : float array -> (float -> float) -> float
(** [ks_statistic_against xs cdf] is the one-sample Kolmogorov–Smirnov
    statistic sup |F̂(x) − cdf x|, used to validate samplers against
    their analytic CDFs. *)

val ks_two_sample : float array -> float array -> float
(** Two-sample KS distance. *)

val autocorrelation : float array -> int -> float
(** [autocorrelation xs k] is the lag-[k] sample autocorrelation;
    0 when the series is constant. *)

val effective_sample_size : float array -> float
(** Initial-positive-sequence estimator (Geyer) of MCMC effective
    sample size. *)

val gelman_rubin : float array array -> float
(** [gelman_rubin chains] is the potential-scale-reduction statistic
    R̂ over two or more equal-length chains. *)

val split_gelman_rubin : float array array -> float
(** [split_gelman_rubin chains] is split-R̂: each chain's most recent
    [2⌊n/2⌋] samples are split in half and classic {!gelman_rubin} is
    computed over the 2m half-chains. Splitting additionally detects
    within-chain drift (a chain still wandering toward the mode shows
    R̂ ≫ 1 even if chain means agree) and is well-defined for a single
    chain. Chains may have unequal lengths — the shortest decides the
    window, and each chain contributes its most recent samples. Raises
    [Invalid_argument] on an empty chain list or when the shortest
    chain has fewer than 4 samples. *)

val pooled_effective_sample_size : float array array -> float
(** Sum of {!effective_sample_size} over independently-run chains —
    the ensemble's total budget of effectively independent draws.

    Edge-case contract (pinned by tests): a single chain contributes
    its own ESS; a constant chain has zero autocorrelation by
    convention and contributes its full length; a chain containing a
    NaN yields [nan] for the pooled total (NaN screening is the
    caller's job — the streaming {!Online} accumulators skip NaN at
    the door instead). *)

(** Streaming (one-pass, O(max_lag) memory) variants of the MCMC
    diagnostics above, for monitors that must not buffer whole chains.
    Non-finite inputs are skipped and counted, Welford-style, so one
    corrupted iterate cannot poison a long-running accumulator. *)
module Online : sig
  type acf
  (** Streaming lag-k autocovariance over a growing series: a ring of
      the last [max_lag] values plus running cross-product sums. *)

  val acf : ?max_lag:int -> unit -> acf
  (** [acf ~max_lag ()] tracks lags 1..[max_lag] (default 64). Raises
      [Invalid_argument] when [max_lag < 1]. *)

  val push : acf -> float -> unit
  (** Add one sample; non-finite values are skipped and counted. *)

  val count : acf -> int
  (** Accepted (finite) samples so far. *)

  val skipped : acf -> int
  (** Non-finite samples dropped by {!push} so far. *)

  val mean : acf -> float
  (** [nan] when empty. *)

  val autocorrelation : acf -> int -> float
  (** γ̂_k/γ̂_0, clamped into [\[-1, 1\]] (the global-mean approximation
      can overshoot while the series still trends); 0 when the series
      is constant (the {!Statistics.autocorrelation} convention),
      [nan] with fewer than [k+1] samples. *)

  val ess : acf -> float
  (** Geyer initial-positive-sequence effective sample size over the
      tracked lags: 0 when empty, otherwise clamped to [\[1, count\]].
      Matches {!Statistics.effective_sample_size} up to the truncation
      at [max_lag] and the streaming autocovariance approximation. *)
end
