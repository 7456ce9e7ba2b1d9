(** Systems of difference constraints.

    A system over variables [x_0 ... x_{n-1}] built from constraints
    of the form [x_i - x_j <= c], plus unary bounds and equalities.
    Feasibility and a feasible point are computed with Bellman–Ford on
    the constraint graph (negative cycle ⇔ infeasible).

    In this library, difference constraints encode the deterministic
    timing skeleton of a queueing trace — every FIFO/order/positivity
    constraint over the unobserved departure times is of this form —
    and the solver provides feasible initializations for the Gibbs
    sampler (a faster, specialized alternative to the paper's LP
    initialization). *)

type t

val create : ?default_upper:float -> ?capacity:int -> int -> t
(** [create n] makes an empty system over [n] variables. Variables
    with no effective upper bound are capped by [default_upper]
    (default [1e15]) so solutions stay finite. Room for
    [max n capacity] constraints is allocated up front; past that the
    storage doubles as constraints are added. *)

val num_variables : t -> int

val add_le : t -> int -> int -> float -> unit
(** [add_le t i j c] imposes [x_i - x_j <= c]. *)

val add_upper : t -> int -> float -> unit
(** [add_upper t i c] imposes [x_i <= c]. *)

val add_lower : t -> int -> float -> unit
(** [add_lower t i c] imposes [x_i >= c]. *)

val add_eq : t -> int -> float -> unit
(** [add_eq t i c] imposes [x_i = c]. *)

type infeasibility = { message : string }

val solve : t -> [ `Earliest | `Latest ] -> (float array, infeasibility) result
(** [solve t mode] returns a feasible assignment, or an infeasibility
    witness. [`Latest] is the componentwise-greatest solution (all
    variables as large as the bounds allow); [`Earliest] the
    componentwise-least. *)

val solve_centered : t -> (float array, infeasibility) result
(** The average of the earliest and latest solutions — still feasible
    because the feasible set is convex — which keeps every slack
    strictly interior where possible. This is the recommended Gibbs
    starting point. *)

val check : t -> float array -> (unit, string) result
(** [check t x] verifies that [x] satisfies every recorded constraint
    (to within 1e-9 slack); used by tests and by the sampler's debug
    assertions. *)
