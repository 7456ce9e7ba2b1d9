(** Stochastic EM for queueing-network parameters (Section 4 of the
    paper).

    Each iteration replaces the unobserved departures with {e one}
    Gibbs sweep (the stochastic E-step) and then applies the
    closed-form exponential MLE to the imputed complete data (the
    M-step): [μ̂_q = n_q / Σ_e s_e], with the arrival rate λ̂ arising
    as the rate of the arrival queue q0. Point estimates average the
    post-burn-in iterates, which tames the stationary jitter StEM is
    known for. *)

type config = {
  iterations : int;  (** total StEM iterations (default 200) *)
  burn_in : int;  (** iterations discarded before averaging (default 100) *)
  warmup_sweeps : int;
      (** Gibbs sweeps under the initial parameters before the first
          M-step, letting the latent state decorrelate from the
          initializer (default 10) *)
  init_strategy : Init.strategy;  (** default [Targeted] *)
  shuffle : bool;
      (** sweep in a fresh random order rather than index order
          (default [false]). Every StEM driver, [estimate_waiting],
          [Bayes], [Mcem] and [Interval_report] sweep in index order
          (DESIGN.md section 2); the field stays because the
          benchmark's batch driver reads it. *)
  min_queue_events : int;
      (** M-step guard: queues with fewer imputed events than this
          keep their previous rate (default 1) *)
  prior_strength : float;
      (** MAP stabilizer: a Gamma prior contributing
          [strength · n_q · (initial mean service)] of pseudo service
          mass per queue. The complete-data likelihood is unbounded
          (all time can hide in density-free waiting while rates grow
          without limit), and under very sparse observation raw StEM
          can ratchet into that degeneracy; a small value (default
          0.05) caps the divergence at a few percent of bias. Set 0
          to recover the paper's plain MLE M-step. *)
}

val default_config : config

type result = {
  params : Params.t;  (** post-burn-in average (in mean-service space) *)
  params_last : Params.t;  (** final iterate *)
  history : Params.t array;  (** every iterate, for diagnostics *)
  mean_service : float array;  (** [1/μ̂_q] per queue, the Figure 4/5 estimate *)
  log_likelihood_history : float array;
      (** complete-data log-likelihood after each iteration *)
}

val initial_guess : Event_store.t -> Params.t
(** A data-driven starting point computed from observed values only:
    exact service MLE where an event's full neighbourhood is observed,
    the inverse mean observed response time otherwise, and a
    throughput-based estimate as the last resort. *)

val mle_step :
  ?prior:float * Params.t ->
  Event_store.t ->
  previous:Params.t ->
  min_queue_events:int ->
  Params.t
(** The M-step on the current imputed state: per-queue exponential
    rate MLE, or MAP when [prior] = (strength, anchor params) is
    given. *)

val run :
  ?config:config ->
  ?init:Params.t ->
  ?route_fsm:Qnet_fsm.Fsm.t ->
  Qnet_prob.Rng.t ->
  Event_store.t ->
  result
(** [run rng store] is {!start}, {!warmup}, [config.iterations] times
    {!step}, then {!average}. [init] overrides {!initial_guess}.
    When [route_fsm] is given, the routing of unobserved events is
    treated as latent too: every E-step additionally runs one
    Metropolis–Hastings routing sweep ({!Path_move.sweep}) under that
    FSM — the paper's "outer Metropolis-Hastings step" for unknown
    paths. The store is left at the final imputed state. Raises
    [Failure] if initialization fails (inconsistent observations). *)

(** {1 One chain, one step}

    {!run}, the checkpointing [Qnet_runtime.Runtime] and the
    multi-chain [Qnet_runtime.Supervisor] drive the same chain state
    through the same step; they differ only in what they do around
    it. *)

type chain = {
  id : int;  (** the chain's id in {!Qnet_obs.Diagnostics} *)
  store : Event_store.t;  (** the latent state, imputed in place *)
  rng : Qnet_prob.Rng.t;
  anchor : Params.t;
      (** the starting parameters: the target of initialization and
          re-initialization, and the anchor of the MAP prior *)
  history : Params.t array;
      (** one slot per configured iteration; the iterates are
          [history.(0 .. iteration - 1)] *)
  llh : float array;  (** complete-data log-likelihood per iterate, as [history] *)
  mutable params : Params.t;  (** the current iterate *)
  mutable iteration : int;  (** iterations committed *)
}
(** The state of one StEM chain — what a [Qnet_runtime.Checkpoint]
    captures. A chain belongs to one domain at a time. *)

val start :
  ?id:int ->
  ?init:Params.t ->
  config ->
  Qnet_prob.Rng.t ->
  Event_store.t ->
  chain * (unit, string) Stdlib.result
(** [start config rng store] is a chain at iteration 0 (default [id]
    0) anchored at [init], or at {!initial_guess} of the store, with
    the latent state initialized by {!reinit}. The result is
    {!Init.feasible}'s: on [Error] the chain exists but its latent
    state is not feasible. *)

val reinit : config -> chain -> (unit, string) Stdlib.result
(** {!Init.feasible} towards the anchor with [config.init_strategy]:
    the start of a chain and every rollback. Draws nothing. *)

val warmup : ?before_sweep:(int -> bool) -> config -> chain -> unit
(** Up to [config.warmup_sweeps] Gibbs sweeps under the current
    parameters, inside the [stem.warmup] span and profiling phase.
    [before_sweep k] runs before the [k]-th sweep (1-based); [false]
    ends the warm-up there. *)

val step :
  ?route_fsm:Qnet_fsm.Fsm.t ->
  ?check:(Params.t -> (unit, string) Stdlib.result) ->
  ?on_sample:(float array -> unit) ->
  config ->
  chain ->
  (unit, string) Stdlib.result
(** One StEM iteration inside the [stem.iteration] profiling phase: a
    Gibbs sweep, a routing sweep when [route_fsm] is given, the M-step
    ([stem.mstep]; MAP around the anchor when
    [config.prior_strength > 0]), then [check] on the new iterate. [Ok]
    commits it: [params], [history], [llh] ([stem.loglik]) and
    [iteration] advance, [on_sample] gets the imputed state's mean
    service per queue, and with metrics on the [qnet_stem_iteration*]
    metrics and {!Qnet_obs.Diagnostics.default} (chain [id]) are fed;
    those means are computed only then, and once. [Error] (never, with
    the default [check]) commits nothing and leaves the store at the
    rejected iteration's state. The hooks must not draw from the
    chain's generator. *)

val register_metrics : unit -> unit
(** Create the step's metric families now, the sweep's included — see
    {!Gibbs.register_metrics}. *)

val average : config -> chain -> result
(** The result of the committed iterations: the average of the
    iterates after [config.burn_in] in mean-service space — over all
    of them when no more than [burn_in] were committed, and the
    current parameters when none was. *)

val estimate_waiting :
  ?sweeps:int ->
  ?burn_in:int ->
  Qnet_prob.Rng.t ->
  Event_store.t ->
  Params.t ->
  float array
(** Posterior-mean waiting time per queue under fixed parameters
    (the paper's final step): run the Gibbs sampler for [sweeps]
    (default 100) sweeps in index order, discard [burn_in] (default
    50), and average each queue's mean waiting time across retained
    sweeps. *)
