(** Gibbs sampling with {e general} service distributions — the
    generalization the paper announces as work in progress ("we are
    currently generalizing the sampler to that case", §2).

    The structure of a move is identical to {!Gibbs} — one unobserved
    departure at a time, same feasibility window — but the full
    conditional is no longer piecewise exponential: it is the product
    of up to three arbitrary service densities,

    [g(d) = f_{q_f}(d − b_f) · f_{q_f}(d_g − max(a_g, d)) ·
            f_{q_e}(d_e − max(d, d_ρ(e)))],

    which this module samples with a {!Qnet_prob.Slice} transition
    (exact invariance, no tuning; one transition per visit, exactly
    the Metropolis-within-Gibbs pattern). The unbounded-tail case
    (no consumer, no within-queue successor) is drawn exactly as
    [b_f + S], [S ~ f_{q_f}]. For exponential models this chain and
    {!Gibbs} target the same posterior (verified in tests). *)

val log_conditional :
  Event_store.t -> Service_model.t -> int -> float -> float
(** Unnormalized conditional log-density of a departure value for one
    unobserved event (finite only within the feasibility window). *)

val window : Event_store.t -> int -> float * float option
(** The feasibility window [(L, U)] of one unobserved event ([None] =
    unbounded tail). Shared with the exponential kernel's bounds. *)

val resample_event :
  Qnet_prob.Rng.t -> Event_store.t -> Service_model.t -> int -> unit
(** One slice transition on one event's departure. *)

val sweep : Qnet_prob.Rng.t -> Event_store.t -> Service_model.t -> unit
(** One slice transition on every unobserved event, in index order
    ({!Event_store.latent}) like every sampler here: on A5's tandem the
    random scan drew no more effective samples per sweep, and each of
    its sweeps cost more (DESIGN.md section 2, "Sweep order"). *)

val run :
  sweeps:int -> Qnet_prob.Rng.t -> Event_store.t -> Service_model.t -> unit
(** [run ~sweeps rng store model] applies {!sweep} [sweeps] times. *)
