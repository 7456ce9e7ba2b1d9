(** State validation for long inference runs.

    A Gibbs/StEM run over hours of samples is only as good as its
    invariants: one NaN latent or one collapsed rate silently poisons
    every subsequent sweep. [Health.check] asserts the deterministic
    constraints of the paper's model (Section 2) plus numerical
    sanity on the current sampler state, and returns every violation
    found so the runtime can decide to roll back. *)

type violation =
  | Nan_latent of int  (** event index with a NaN/±inf departure *)
  | Negative_service of int * float  (** event index, service value *)
  | Departure_before_arrival of int
  | Fifo_violation of int * int
      (** (queue, event): within-queue arrival order broken *)
  | Chain_leak of int * int
      (** (expected, walked): the per-queue ρ chains do not cover every
          event exactly once — corrupted chain pointers *)
  | Nonfinite_log_likelihood of float
      (** total complete-data log-likelihood is NaN/±inf *)
  | Degenerate_rate of int * float
      (** (queue, rate): non-positive, non-finite, or collapsed beyond
          [max_rate] — the runaway-MLE failure mode *)
  | Sample_loss of int * int
      (** (skipped, kept): a streaming accumulator silently dropped
          NaN samples. {!Qnet_prob.Statistics.Welford} skips NaN
          inputs so one corrupt draw does not poison a long run's
          moments — but each skip is data loss, and a chain that loses
          samples without anyone noticing reports moments over a
          different (censored) sample than it claims. Produced by
          {!of_accumulator}, not by {!check}. *)

val describe : violation list -> string
(** One-line summary ("3 violations: nan-latent(17), ...") for logs
    and abort messages. *)

val check : Qnet_core.Event_store.t -> Qnet_core.Params.t -> violation list
(** [check store params] returns every invariant violation of the
    current latent state and parameters, in event order; [[]] means
    healthy. Times compare with a slack of 1e-9, matching
    [Event_store.validate]. A rate above 1e12 is degenerate: the
    exponential M-step can ratchet rates toward infinity under sparse
    observation, and a rate beyond any physical service time is a
    collapse, not an estimate. The check never raises and never
    consumes randomness, so it can run inside a reproducible sampling
    loop. *)

val of_accumulator : Qnet_prob.Statistics.Welford.t -> violation list
(** [of_accumulator w] is [[Sample_loss (skipped, kept)]] when the
    accumulator has dropped NaN inputs, [[]] otherwise — the bridge
    that makes {!Qnet_prob.Statistics.Welford}'s silent NaN-skip
    accounting visible in health verdicts (the multi-chain supervisor
    attaches it to each chain's report). *)
