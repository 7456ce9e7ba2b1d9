(** Fault-tolerant driver for stochastic-EM inference.

    The paper's deployment story — localizing performance problems from
    ~1% samples of production traces — implies long sampling runs over
    dirty data. This module drives {!Qnet_core.Stem}'s chain and step
    in a production harness:

    - {b checkpointing}: every [checkpoint_every] iterations the full
      sampler state (latents, parameters, iterate history, RNG) is
      captured; with a [checkpoint_path] it is also written atomically
      to disk ({!Checkpoint}), so a killed process resumes exactly
      where it stopped — bit-identical to the uninterrupted run.
    - {b validation}: every [validate_every] iterations (and at every
      checkpoint boundary, so a checkpoint is never poisoned)
      {!Health.check} asserts the model's invariants.
    - {b recovery}: a violation or an exception rolls the state back to
      the last good checkpoint, re-jitters the latents via
      {!Qnet_core.Init.feasible} (the RNG has advanced, so the retry
      explores a different sampling path), and doubles the validation
      interval — exponential backoff. After [max_retries] recoveries
      the run aborts cleanly, still returning every sample collected.
    - {b budgets}: an optional wall-clock budget ends the run
      gracefully with the partial posterior instead of a SIGKILL
      losing everything. *)

type config = {
  stem : Qnet_core.Stem.config;  (** the wrapped StEM configuration *)
  checkpoint_every : int;
      (** iterations between checkpoints; 0 disables both the on-disk
          write and the in-memory rollback point refresh (default 25) *)
  checkpoint_path : string option;
      (** where to persist checkpoints; [None] keeps them in memory
          only (rollback still works, resume after kill does not) *)
  validate_every : int;  (** iterations between health checks (default 10) *)
  max_retries : int;  (** rollback attempts before aborting (default 3) *)
  max_seconds : float option;  (** wall-clock budget; [None] = unlimited *)
}

val default_config : config

type status =
  | Completed
  | Budget_exhausted  (** wall-clock budget hit; partial posterior returned *)
  | Aborted of string  (** retries exhausted; partial posterior returned *)

type incident = {
  at_iteration : int;
  cause : string;  (** health violations or a caught exception *)
}

type report = {
  iterations_done : int;
  retries : int;
  incidents : incident list;  (** oldest first *)
  checkpoints_written : int;  (** on-disk writes, not in-memory refreshes *)
  resumed_at : int option;  (** iteration a resumed run continued from *)
  wall_seconds : float;
}

type result = {
  params : Qnet_core.Params.t;
      (** post-burn-in average, or over whatever prefix completed *)
  params_last : Qnet_core.Params.t;
  history : Qnet_core.Params.t array;  (** length [report.iterations_done] *)
  mean_service : float array;
  log_likelihood_history : float array;
  status : status;
  report : report;
}

val pp_status : Format.formatter -> status -> unit
val pp_report : Format.formatter -> report -> unit

val run :
  ?config:config ->
  ?init:Qnet_core.Params.t ->
  ?resume:Checkpoint.t ->
  ?chaos:(int -> Qnet_core.Event_store.t -> unit) ->
  ?diagnostics:Qnet_obs.Diagnostics.t ->
  Qnet_prob.Rng.t ->
  Qnet_core.Event_store.t ->
  result
(** [run rng store] is {!Qnet_core.Stem.run} under the harness above:
    the same {!Qnet_core.Stem.start}, {!Qnet_core.Stem.warmup},
    {!Qnet_core.Stem.step} (whose [check] runs [chaos] and the health
    checks) and {!Qnet_core.Stem.average}, so with no incident the
    result is [Stem.run]'s bit for bit, telemetry included. With
    [resume] the initialization phase is skipped entirely:
    the store, parameters, history, and RNG are restored from the
    checkpoint and iteration [ck.iteration] continues as if the
    process had never died. Raises [Invalid_argument] if the
    checkpoint's dimensions do not match [store], or on a nonsensical
    config. [chaos] is a test-only hook called after each iteration's
    M-step — fault-injection harnesses use it to corrupt the state
    in a controlled way; it must not consume [rng]. With metrics on,
    the chain feeds the [diagnostics] hub as {!Qnet_core.Stem.run}
    does; without one it feeds none. *)

val resume_file :
  ?config:config ->
  ?chaos:(int -> Qnet_core.Event_store.t -> unit) ->
  ?diagnostics:Qnet_obs.Diagnostics.t ->
  path:string ->
  Qnet_prob.Rng.t ->
  Qnet_core.Event_store.t ->
  (result, string) Stdlib.result
(** Load a checkpoint from [path] and continue. [Error] on I/O or
    decode failure, or when the checkpoint does not fit [store]. *)
