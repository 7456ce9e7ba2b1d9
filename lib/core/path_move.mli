(** Metropolis–Hastings resampling of uncertain routing.

    The Gibbs sampler holds each task's FSM path fixed; Section 3 of
    the paper notes that unknown paths "can be resampled by an outer
    Metropolis-Hastings step". This module implements that step for
    the common case of load-balancer uncertainty: the FSM {e state}
    sequence of a task is known (the protocol is known), but which of
    a state's emitted queues served an unobserved event is not — e.g.
    which of ten replicated web servers handled a request no one
    logged.

    A move proposes a new queue for one event from the FSM's emission
    distribution p(q | σ_e) restricted to alternatives, re-homes the
    event (see {!Event_store.move_event}), and accepts with the
    likelihood ratio of the affected service terms; since the proposal
    is the prior emission distribution, emission probabilities cancel
    except for the normalization over alternatives. A proposal that
    would make any service time negative (the fixed departure cannot
    be accommodated by the target queue's FIFO chain) is rejected
    outright. *)

type stats = { proposed : int; accepted : int; infeasible : int }

val eligible : Event_store.t -> Qnet_fsm.Fsm.t -> int -> bool
(** [eligible store fsm i] — event [i] is a candidate for a routing
    move: not an initial event, and its FSM state emits at least two
    queues with positive probability. (The departure may be observed:
    the route is a separate latent variable — a request whose timing
    was logged may still have an unlogged balancer choice.) *)

val resample_event :
  Qnet_prob.Rng.t ->
  Event_store.t ->
  Params.t ->
  Qnet_fsm.Fsm.t ->
  int ->
  [ `Accepted | `Rejected | `Infeasible | `Ineligible ]
(** One M–H move on one event's queue assignment. *)

val sweep :
  Qnet_prob.Rng.t -> Event_store.t -> Params.t -> Qnet_fsm.Fsm.t -> stats
(** One pass of routing moves over every eligible event with an
    {e unobserved} departure, chosen before the first move
    (fully-observed tasks are assumed to have known routes). *)
