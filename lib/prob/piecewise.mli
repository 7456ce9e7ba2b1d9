(** Exact sampling from piecewise log-linear densities on an interval.

    A density of the form [p(x) ∝ exp (β·x + Σᵢ sᵢ · max 0. (x - bᵢ))]
    on a bounded interval [\[lower, upper\]] is exactly the shape of
    the Gibbs conditional over an unobserved arrival/departure time in
    an M/M/1 FIFO network (the paper's Figure 3): each neighbouring
    service time contributes one linear-or-hinge term. This module
    compiles such a "hinge form" into explicit pieces and supports
    exact inverse-CDF sampling, evaluation, and moments.

    The log-density is shifted so that its largest value at a break is
    0; a piece's mass is then the density at its higher end times
    [(1 - exp (-|r|w)) / |r|], computed with [Float.expm1], and can
    neither overflow nor cancel. Masses, the CDF, draws and the mean
    are stable for rates up to ~1e300 and widths down to the denormal
    range (where |r·w| < 1e-12 a piece is taken as flat to first
    order). *)

type hinge = { knee : float; slope : float }
(** One term [slope · max 0. (x - knee)]: contributes nothing left of
    [knee] and linear growth [slope] (of either sign) right of it. *)

type t
(** A compiled density. Immutable. *)

val compile :
  lower:float -> upper:float -> linear:float -> hinges:hinge list -> t
(** [compile ~lower ~upper ~linear ~hinges] builds the density
    [exp (linear·x + Σ hinges)] restricted to [\[lower, upper\]].
    Requires [lower < upper], both finite. Knees outside the interval
    are folded into the global slope (left of [lower]) or dropped
    (right of [upper]); hinges with a non-finite knee or slope are
    dropped entirely (they can only arise from corrupted upstream
    state). Raises [Invalid_argument] on a degenerate or reversed
    interval — callers with possibly-degenerate windows should collapse
    them to a point first, as {!Qnet_core.Gibbs.compile} does. *)

val lower : t -> float
val upper : t -> float

val pieces : t -> (float * float * float) list
(** [(piece_lo, piece_hi, rate)] for each compiled piece, left to
    right; [rate] is the log-density slope on that piece. Exposed for
    tests and for cross-checking against the paper's three-case
    formula. *)

val log_density : t -> float -> float
(** Unnormalized log-density (up to one shared additive constant);
    [neg_infinity] outside [\[lower t, upper t\]]. *)

val log_normalizer : t -> float
(** [log ∫ exp (log_density)] over the interval, consistent with the
    constant used by {!log_density}. *)

val cdf : t -> float -> float
(** Normalized CDF of the density. *)

val quantile : t -> float -> float
(** Exact inverse CDF; requires the argument in [\[0, 1\]]. *)

val sample : Rng.t -> t -> float
(** One exact draw: choose a piece by {!Rng.categorical} over the
    unnormalised masses (no draw for a single piece), then invert the
    truncated-exponential CDF within it on a second uniform [q]: the
    offset [log1p (q · expm1 (r·w)) / r], or [w + log q / r] where
    [expm1 (r·w)] overflows. *)

val mean : t -> float
(** Exact first moment: each piece's share of the mass times its
    truncated-exponential mean, in closed form. *)
