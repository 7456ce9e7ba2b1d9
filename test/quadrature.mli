(** Numerical integration: the test oracle that checks the exact
    samplers' densities, normalizers and CDFs against direct
    integration. *)

val adaptive_simpson :
  ?tol:float -> ?max_depth:int -> (float -> float) -> float -> float -> float
(** [adaptive_simpson f a b] approximates [∫_a^b f] by recursive
    Simpson bisection with Richardson acceleration. [tol] is the
    absolute-error budget (default 1e-10); [max_depth] bounds the
    recursion (default 48). Requires [a <= b] and finite endpoints. *)

val trapezoid : ?n:int -> (float -> float) -> float -> float -> float
(** [trapezoid ~n f a b]: composite trapezoid rule with [n] panels
    (default 1024). A cheap cross-check for the adaptive rule. *)

val log_integral_exp :
  ?n:int -> (float -> float) -> float -> float -> float
(** [log_integral_exp log_f a b] is [log ∫_a^b exp (log_f x) dx],
    computed against the running maximum so integrands spanning
    hundreds of orders of magnitude don't underflow. Composite
    Simpson with [n] (even, default 4096) panels. *)
