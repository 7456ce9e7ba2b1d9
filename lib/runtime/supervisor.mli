(** Supervised multi-chain stochastic-EM inference.

    {!run} executes N independent StEM chains ({!Qnet_core.Stem.chain},
    advanced by {!Qnet_core.Stem.step}) on the worker domains of
    {!Pool} and babysits them from the calling domain: every chain beats a
    {!Watchdog.Heartbeat} once per sweep, a watchdog enforces a
    per-sweep deadline, a cross-chain monitor computes split-R̂ /
    effective sample size over the pooled iterates, and chains that
    crash, stall, fail a {!Health} check, or diverge from the ensemble
    are quarantined and restarted from their last good {!Checkpoint}
    with re-jittered latents. When a chain exhausts its restart budget
    the supervisor degrades gracefully to the surviving chains; the
    final estimate pools whatever quorum remains and reports a
    per-chain verdict either way.

    {b Execution model.} Chains advance in {e rounds} of
    [round_iterations] StEM iterations. Each round the supervisor
    submits one {!Pool} job per active chain and waits at a barrier
    that wakes as soon as the round's last job finishes. While jobs
    run it checks their heartbeats, ten times per [sweep_deadline].
    With more chains than workers, some chains wait in the pool's
    queue; a chain's heartbeat is armed when its job starts, so a
    queued chain is not stalled. At the barrier all control decisions
    happen: health checks, checkpoint capture, crash/stall recovery,
    divergence quarantine. Putting every decision at a deterministic
    barrier (rather than in racing signal handlers) means a run with a
    fixed seed and no faults makes identical decisions every time, and
    unfaulted chains are bit-for-bit reproducible even when sibling
    chains are being killed and restarted around them — each chain
    owns a private store and a private RNG stream seeded
    [seed + 7919·chain].

    {b Start and barriers.} A run builds and initializes one store, for
    chain 0, and starts every other chain on a copy of it
    ({!Qnet_core.Stem.fork}): initialization draws nothing, so the
    copies hold the latents a build and {!Qnet_core.Init.feasible} of
    their own would reach, to the bit. A restart re-initializes the
    chain's own store. At each healthy barrier a chain's checkpoint is
    captured into the arrays of its previous one ({!Checkpoint.capture}
    [~into]), after the health check has passed, so a rollback always
    returns to the newest healthy barrier and a run allocates a
    chain's checkpoint arrays once.

    {b Stalls.} An OCaml domain cannot be preempted. A stalled chain
    is cancelled cooperatively (a flag it checks at each iteration
    boundary); one that never reaches a boundary is abandoned after
    [stall_grace] seconds ({!Pool.abandon}). The pool starts a
    replacement worker at once, so the healthy majority never waits on
    a zombie; the zombie's worker exits if its job ever returns. *)

type config = {
  chains : int;  (** number of independent chains (default 4) *)
  min_chains : int;
      (** quorum: healthy chains required for a {!Quorum} verdict
          (default 2) *)
  stem : Qnet_core.Stem.config;  (** per-chain StEM configuration *)
  round_iterations : int;
      (** iterations per supervision round — the granularity of
          checkpoints, health checks and divergence tests (default 10) *)
  sweep_deadline : float;
      (** watchdog deadline in seconds between heartbeats; a chain
          quieter than this is stalled (default 5.0). While chains run,
          the watchdog checks their heartbeats every tenth of it. *)
  stall_grace : float;
      (** seconds a stalled chain may ignore cancellation before its
          domain is abandoned (default 2.0) *)
  max_restarts : int;
      (** per-chain restart budget; the next failure is terminal
          (default 2) *)
  rhat_threshold : float;
      (** divergence gate: the outlier hunt only runs when the maximal
          split-R̂ over service queues exceeds this (default 1.2) *)
  ks_threshold : float;
      (** a chain is quarantined as the outlier only when its KS
          distance against the pooled rest exceeds this (default 0.7) *)
}

val default_config : config

type chain_status =
  | Healthy
  | Quarantined of string
      (** excluded from the pooled estimate (diverged or failed a
          health check) after exhausting its restart budget *)
  | Dead of string
      (** crashed or stalled beyond recovery; the string is the cause *)

type chain_verdict = {
  chain : int;
  status : chain_status;
  iterations_done : int;
  restarts : int;
  heartbeats : int;  (** total sweeps the watchdog saw from this chain *)
  violations : Health.violation list;
      (** residual accumulator violations — notably
          [Health.Sample_loss] when the chain's Welford moments
          silently dropped NaN samples that survived to the end *)
  incidents : (int * string) list;
      (** (iteration, cause) log of everything that went wrong, oldest
          first — including incidents later repaired by a restart *)
}

type ensemble_status =
  | Quorum  (** at least [min_chains] chains finished healthy *)
  | Degraded
      (** fewer than [min_chains] but at least one healthy chain; the
          estimate stands on thinner evidence *)
  | Failed  (** no healthy chain; the result is a best-effort salvage *)

type result = {
  params : Qnet_core.Params.t;
      (** pooled post-burn-in estimate over contributing chains *)
  mean_service : float array;  (** pooled [1/μ̂_q] per queue *)
  rhat : float array;
      (** per-queue split-R̂ across healthy chains ([nan] when fewer
          than one usable chain). Values near 1 certify that the
          estimates do not depend on the Monte Carlo path. Caveat:
          a statistic that is almost deterministic within a chain —
          notably the arrival rate, whose sufficient statistic
          telescopes to the (anchored) horizon — has vanishing
          within-chain variance, so the arrival queue's R̂ is inflated
          while the chains agree on the rate to a fraction of a
          percent. It is not used for divergence decisions; compare
          the estimates themselves instead. *)
  ess : float array;
      (** pooled effective sample size per queue ([nan] when unusable) *)
  healthy_chains : int;
  status : ensemble_status;
  verdicts : chain_verdict array;  (** indexed by chain *)
  wall_seconds : float;
}

val pp_chain_status : Format.formatter -> chain_status -> unit
val pp_ensemble_status : Format.formatter -> ensemble_status -> unit
val pp_verdict : Format.formatter -> chain_verdict -> unit

val pp_result : Format.formatter -> result -> unit
(** Multi-line report: ensemble status line, one verdict line per
    chain, the pooled estimate and diagnostics, wall time. A [Failed]
    run prints no pooled lines: its [mean_service] is a salvage, not an
    estimate. *)

val ks_outlier_scores : float array array -> float array
(** [ks_outlier_scores chains] scores each chain's draws by their
    two-sample KS distance against the concatenation of every other
    chain — the statistic the divergence monitor thresholds with
    [ks_threshold]. Raises [Invalid_argument] with fewer than two
    chains. Exposed for testing and external monitors. *)

val register_metrics : unit -> unit
(** Register the supervisor's metric families, the StEM step's, the
    Gibbs kernel's and {!Pool}'s. {!run} calls it when metrics are
    enabled; a caller whose threads may start runs at once (the serve
    daemon) calls it first, on one thread, because two threads forcing
    one lazy handle at once fail. *)

val run :
  ?config:config ->
  ?init:Qnet_core.Params.t ->
  ?faults:Fault.chain_fault list ->
  ?diagnostics:Qnet_obs.Diagnostics.t ->
  seed:int ->
  (unit -> Qnet_core.Event_store.t) ->
  result
(** [run ~seed make_store] supervises [config.chains] StEM chains on
    the store [make_store] returns, called once: chain 0 runs on it and
    every other chain on a copy of it, made after its initialization
    (see {e Start and barriers} above). [init]
    overrides the data-driven {!Qnet_core.Stem.initial_guess} anchor.
    With metrics on and a [diagnostics] hub given ([qnet_infer] gives
    {!Qnet_obs.Diagnostics.default}), the run resets the hub, its
    chains feed it their iterates, and each barrier and the end export
    verdicts and publish it. Without a hub the run touches none, so
    runs on several threads at once (the serve daemon's shards) do not
    mix their chains in one hub.
    [faults] injects deterministic chain-level faults (each fires at
    most once, so a restarted chain re-runs the faulted iteration
    cleanly). Each round runs the chains as {!Pool} jobs, so the first
    run starts the pool's workers and later runs reuse them. Never
    raises on chain failure — failures are reported in the verdicts;
    raises [Invalid_argument] only for a malformed config, a fault
    naming a chain out of range, or a call from inside a pool job,
    which would wait on jobs queued behind it. *)
