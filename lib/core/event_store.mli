(** The latent-variable view of a trace: the mutable state on which
    the Gibbs sampler operates.

    Every event [e = (k_e, σ_e, q_e, a_e, d_e)] of the paper's model
    (Section 2) is represented by a dense index. The only free
    variables are the {e departures}: by the deterministic constraint
    [a_e = d_{π(e)}], the arrival of an event is the departure of its
    within-task predecessor (0 for initial events), so the store keeps
    a single mutable [departure] array. Within-queue predecessor
    pointers ρ follow the {e true} arrival order of the trace and stay
    fixed throughout inference — this is the paper's "event counter"
    assumption, which guarantees that a Gibbs move only touches a
    bounded neighbourhood of the moved event.

    Indices follow the canonical ordering of [Trace.events] (sorted by
    task, then arrival). Pointer accessors return [-1] for "none". *)

type t

val of_trace : ?observed:bool array -> Qnet_trace.Trace.t -> t
(** [of_trace ~observed trace] builds the linked structure.
    [observed.(i)] marks the departure of event [i] (in the trace's
    canonical order) as measured and immutable; the default marks
    everything observed (a fully-observed store is useful for scoring
    and testing). Raises [Invalid_argument] if [observed] has the
    wrong length, or if the events are not in [Trace.t]'s canonical
    order (ascending by task, and by arrival within a task). *)

(** {1 Sizes} *)

val num_events : t -> int
val num_queues : t -> int
val num_tasks : t -> int

(** {1 Per-event accessors} *)

val task : t -> int -> int
val state : t -> int -> int
val queue : t -> int -> int

val arrival : t -> int -> float
(** [arrival t i] is [departure t (pi t i)], or [0.] for an initial
    event — always consistent with the current latent state. *)

val departure : t -> int -> float
val observed : t -> int -> bool

val start_service : t -> int -> float
(** [max (arrival t i) (departure t (rho t i))] — when event [i]'s
    service began under FIFO. *)

val service : t -> int -> float
(** [departure t i -. start_service t i]. *)

val waiting : t -> int -> float
(** [start_service t i -. arrival t i]. *)

val pi : t -> int -> int
(** Within-task predecessor ([-1] for initial events). *)

val pi_inv : t -> int -> int
(** Within-task successor ([-1] for a task's last event). *)

val rho : t -> int -> int
(** Within-queue predecessor in arrival order ([-1] for the first
    arrival at a queue). *)

val rho_inv : t -> int -> int
(** Within-queue successor ([-1] for the last arrival). *)

val set_departure : t -> int -> float -> unit
(** Overwrite a latent departure. Raises [Invalid_argument] on an
    observed event. No constraint checking — the sampler guarantees
    feasibility; call {!validate} in tests. *)

val move_event : t -> int -> queue:int -> unit
(** [move_event t i ~queue] re-homes event [i] to another queue: it is
    unlinked from its current within-queue (ρ) chain and inserted into
    the target chain at the position determined by its current arrival
    time. Used by the Metropolis–Hastings routing move ({!Qnet_core.
    Path_move}) when FSM paths are themselves uncertain. The chain
    structure stays consistent; service-time feasibility is the
    caller's responsibility (the M–H move rejects infeasible
    proposals). Raises [Invalid_argument] for initial events or the
    arrival queue. *)

(** {1 Topology} *)

val events_of_task : t -> int -> int array
(** Event indices of a task in path order. *)

val events_at_queue : t -> int -> int array
(** Event indices at a queue in (fixed) arrival order. *)

val unobserved_events : t -> int array
(** Indices with latent departures, ascending (a fresh copy). *)

val latent : t -> int array
(** The same indices without the copy: the array the store computes
    once in {!of_trace} (the observed mask never changes afterwards).
    Read it, never write it. *)

val shuffled_latent : t -> Qnet_prob.Rng.t -> int array
(** A uniform shuffle of {!latent}, drawn exactly as
    [Rng.shuffle_in_place] on a fresh copy would be, into a buffer this
    store owns and reuses (each {!copy} has its own). The buffer is
    allocated on the first call, so a store that is only swept in index
    order never holds it. Valid until the next call on this store; read
    it, never write it. Every sampler here sweeps in index order; this
    stays for [Gibbs.sweep ~shuffle:true], {!General_gibbs} and the
    bench. *)

(** {1 In-place view for the Gibbs kernel} *)

type view = {
  v_departure : float array;  (** written only at latent indices *)
  v_observed : bool array;
  v_queue : int array;
  v_pi : int array;
  v_pi_inv : int array;
  v_rho : int array;
  v_rho_inv : int array;
}
(** The store's own arrays, not copies, so a sampler in another
    compilation unit can read times without boxing them. The arrays
    are updated in place for the store's lifetime ({!restore} blits
    into them), so a view stays current. Only {!Qnet_core.Gibbs} and
    {!Qnet_core.Init} write through it, at latent indices and under
    {!set_departure}'s checks; everything else must treat it as
    read-only. *)

val view : t -> view

val arrival_queue : t -> int
(** The queue of the initial events (q0). *)

val generation : t -> int
(** Structure-generation counter: starts at 0 and increments every
    time the queue assignment or within-queue ρ chains change —
    {!move_event}, and {!restore} when the restored snapshot carries a
    different structure. Departure-only updates ({!set_departure},
    Gibbs sweeps, departure-only restores) never change it. Caches
    keyed on the event topology (e.g. a {!Parallel_gibbs} plan) record
    the generation at build time and compare it to detect staleness
    instead of silently operating on a rearranged store. *)

(** {1 Whole-state operations} *)

val to_trace : t -> Qnet_trace.Trace.t
(** Export the current latent state as a trace (revalidates). *)

val copy : t -> t
(** Deep copy (shares immutable topology, copies departures). *)

type snapshot = {
  s_departure : float array;
  s_queue : int array;
  s_rho : int array;
  s_rho_inv : int array;
  s_heads : int array;
}
(** The complete mutable state of a store — departures plus the queue
    assignment and within-queue chains that {!move_event} may have
    rearranged. Fields are exposed so a checkpoint codec can
    serialize them; treat them as read-only. *)

val snapshot : t -> snapshot
(** [snapshot t] captures the current mutable state (deep copy). *)

val restore : t -> snapshot -> unit
(** [restore t s] overwrites the mutable state of [t] with [s]. The
    snapshot must come from a store with the same topology (same event
    count and queue count); raises [Invalid_argument] on a dimension
    mismatch. No other validation is performed — callers restoring
    untrusted state should follow with {!validate}. *)

val validate : t -> (unit, string) result
(** Check every deterministic constraint of the model on the current
    state: non-negative services, per-queue arrival order consistent
    with the fixed ρ chains, observed departures untouched. *)

val log_likelihood : t -> Params.t -> float
(** Eq. 1's log-density of the current complete state (service-time
    factors only; the routing factors are constant because paths are
    held fixed). *)

val service_sufficient_stats : t -> (int * float) array
(** Per queue: event count and total service time under the current
    state — the sufficient statistics of the M-step. *)

val mean_waiting_by_queue : t -> float array
(** Mean waiting time per queue under the current state. *)

val mean_service_by_queue : t -> float array
(** Mean realized service time per queue under the current state. *)
