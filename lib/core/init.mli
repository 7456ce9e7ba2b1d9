(** Feasible initialization of the latent departures.

    The Gibbs sampler needs a starting state satisfying every
    deterministic constraint (Section 3 of the paper notes that such
    constraints make initialization nontrivial: a task may mix
    observed and unobserved arrivals, so an arrival is constrained
    both through its queue and through its task).

    With arrival orders fixed, every timing constraint says that one
    departure follows another by at least [1e-9]: services are
    non-negative, and tasks arrive at each queue in its order. These
    dependencies form a DAG whose edges point forward in time, so two
    exact passes over it in Kahn's order solve the system: a backward
    pass gives each latent departure its latest feasible value (capped
    at 1.5 × the last observed departure + 10), and a forward pass its
    earliest. Neither depends on the order in which edges are visited.
    The constraints are infeasible exactly when some latent earliest
    exceeds its latest. *)

type strategy =
  | Earliest  (** everything as early as the constraints allow *)
  | Latest  (** as late as allowed (bounded by the cap over the horizon) *)
  | Centered  (** midpoint of the two, feasible by convexity *)
  | Targeted
      (** greedy surrogate for the paper's L1 LP (minimize
          [Σ_e |s_e − 1/μ_{q_e}|]): walk the dependency DAG assigning
          each latent departure [service start + target mean service],
          clamped into the latest-feasible envelope. Unlike
          {!Centered}, it does not strand unanchored trailing events
          far from the data, which single-site Gibbs then takes very
          long to repair. Requires [target] parameters. *)

val feasible : ?strategy:strategy -> ?target:Params.t -> Event_store.t -> (unit, string) result
(** [feasible store] overwrites every unobserved departure with a
    feasible assignment, separating every dependent pair of times by at
    least [1e-9], and then checks the store with
    {!Event_store.validate}. The default strategy is [Targeted] when
    [target] is given, [Centered] otherwise; passing
    [~strategy:Targeted] without [target] raises [Invalid_argument].

    Returns [Error], and leaves the store untouched, exactly when no
    feasible assignment exists: the observations leave some latent
    departure no room, they break FIFO order among themselves, or the
    dependencies form a cycle, which only a trace that breaks FIFO
    order produces. Masks drawn from a valid trace never fail. *)

val constraint_count : Event_store.t -> int
(** Number of difference constraints the trace induces (for
    reporting): one per dependency not between two observed
    departures, one lower bound per latent event entering the network,
    and two bounds per observed departure. *)
