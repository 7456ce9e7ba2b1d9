(** The Gibbs sampler for M/M/1/FIFO queueing networks (Section 3 of
    the paper).

    Each move resamples the departure time [d] of one unobserved event
    [f] — equivalently the arrival time of its within-task successor —
    holding fixed the FSM paths and the per-queue arrival orders. The
    full conditional [p(d | everything else)] factors into at most
    three exponential service-time terms:

    - the service of [f] itself: [-μ_f · (d − max(a_f, d_ρ(f)))];
    - the service of [f]'s within-queue successor [g = ρ⁻¹(f)], whose
      service under FIFO starts at [max(a_g, d)]:
      [-μ_f · (d_g − max(a_g, d))];
    - the service of [f]'s within-task successor [e = π⁻¹(f)], which
      arrives at [a_e = d]: [-μ_e · (d_e − max(d, d_ρ(e)))];

    subject to box constraints keeping every service non-negative and
    the arrival order at [e]'s queue unchanged. The result is a
    piecewise log-linear density with at most two interior breakpoints
    — exactly the paper's Figure 3 / Eq. (3)–(4) sampler, including the
    δμ = μ_e − μ_f middle piece — which is sampled exactly. The
    derivation here additionally covers the cases the paper's formula
    leaves implicit: missing neighbours, the task's final event,
    initial (q0) events, and a task queueing directly behind itself at
    the same queue ([g = e]).

    Two implementations exist. The {e reference} builds the conditional
    as data ({!local_density}, {!compile}) and samples it with
    {!Qnet_prob.Piecewise} ({!sample_compiled}). The {e production
    kernel}, behind {!sample_event}, {!resample_event} and {!sweep},
    performs the same floating-point operations in the same order and
    the same RNG draws without allocating; tests hold the two equal bit
    for bit. *)

(** {1 Reference} *)

type local_density = {
  event : int;
  lower : float;  (** hard lower bound L *)
  upper : float option;  (** hard upper bound U; [None] = unbounded tail *)
  linear : float;  (** global log-density slope *)
  hinges : Qnet_prob.Piecewise.hinge list;
      (** breakpoint terms from the two [max] expressions *)
}

val local_density : Event_store.t -> Params.t -> int -> local_density
(** The full-conditional shape for one unobserved event. Raises
    [Invalid_argument] if the event's departure is observed. *)

val compile :
  local_density -> [ `Bounded of Qnet_prob.Piecewise.t | `Tail of float * float | `Point of float ]
(** [`Bounded pw] for a finite window, [`Tail (origin, rate)] for an
    exponential right tail [origin + Exp rate], [`Point x] when the
    window is degenerate: width below 1e-12, negative, or involving a
    non-finite bound (a corrupted latent neighbourhood collapses to a
    point instead of raising or emitting NaN — the runtime's health
    checker is responsible for flagging the corruption itself). *)

val log_conditional : local_density -> float -> float
(** Unnormalized conditional log-density at a point (≡ the relevant
    terms of Eq. 1 up to a constant); [neg_infinity] outside the
    window. For tests. *)

val sample_compiled :
  Qnet_prob.Rng.t ->
  [ `Bounded of Qnet_prob.Piecewise.t | `Tail of float * float | `Point of float ] ->
  float
(** One draw from a compiled conditional: [`Point x] is [x] without a
    draw, [`Tail] one exponential draw, [`Bounded] a
    [Piecewise.sample]. The reference the production kernel must equal
    bit for bit. *)

(** {1 Production kernel} *)

val fmax : float -> float -> float
(** The kernel's [Float.max], without the call to C that stdlib's makes
    whenever [y > x] fails: the same bits on every pair without a NaN,
    signed zeros included, and a NaN when either argument is one.
    Exposed so that tests can pin it. *)

val fmin : float -> float -> float
(** The kernel's [Float.min], as {!fmax}. *)

val window : Event_store.t -> int -> float * float option
(** The feasibility window [(L, U)] of one event ([None] = unbounded
    tail), computed by the production kernel's bounds code and shared
    with {!General_gibbs}. Does not check that the event is latent. *)

val sample_event : Qnet_prob.Rng.t -> Event_store.t -> Params.t -> int -> float
(** Draw a new departure for one event from its full conditional (does
    not write it back). Raises [Invalid_argument] on an observed
    event. *)

val resample_event : Qnet_prob.Rng.t -> Event_store.t -> Params.t -> int -> unit
(** {!sample_event} and write back under [Event_store.set_departure]'s
    checks, through {!sweep}'s loop. *)

val sweep :
  ?shuffle:bool -> Qnet_prob.Rng.t -> Event_store.t -> Params.t -> unit
(** One full Gibbs sweep: resample every unobserved event once, in
    index order, or in a fresh uniform random order
    ({!Event_store.shuffled_latent}) when [shuffle] (default [false]).
    Every sampler in this library sweeps in index order (DESIGN.md
    section 2): that order reads the store's arrays as a stream, and it
    drew at least as many effective samples per second as the random
    scan at every size measured. [shuffle] stays because the
    benchmark's batch driver passes it and the tests pin the random
    scan's chain. One scratch per sweep, nothing allocated per
    event. *)

val register_metrics : unit -> unit
(** Create the sweep's metric families now. [Lazy.force] is not
    domain-safe, so a caller that runs chains on several domains with
    metrics enabled calls this on its own domain before it starts them:
    {!Stem.register_metrics} does, for [Qnet_runtime.Supervisor]. *)

val run :
  ?shuffle:bool ->
  sweeps:int ->
  Qnet_prob.Rng.t ->
  Event_store.t ->
  Params.t ->
  unit
(** [run ~sweeps rng store params] applies {!sweep} [sweeps] times,
    in [shuffle]'s order (default index order). *)
