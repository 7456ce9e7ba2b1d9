(** Streaming inference-quality diagnostics: is the sampler healthy,
    and which queue does the posterior currently blame?

    The metrics registry ({!Metrics}) observes {e mechanics} — sweep
    timing, restarts, heartbeats. This module observes {e statistics}:
    a hub accumulates each chain's per-queue mean-service iterates (a
    bounded recent window plus one-pass {!Qnet_prob.Statistics.Online}
    accumulators) and answers, at any instant of a live run, with
    split-R̂, pooled ESS and ESS/sec, lag-1 autocorrelation, posterior
    mean/quantiles per queue, and the waiting-vs-service decomposition
    that localizes the bottleneck — the paper's output, computed on
    the paper's own inference machinery while it runs.

    {b Feeding.} Every StEM run ([Stem.run], the checkpointing
    runtime, the supervisor's chains) pushes one observation per
    committed iteration through the one StEM step ([Stem.step]), gated
    on {!Metrics.enabled} so the instrumentation-off cost stays one
    atomic load. Observations are iteration-granular (not
    event-granular): a mutex-guarded hub is cheap at that rate and safe
    under the supervisor's pool workers.

    {b Publishing.} Every [publish_every] observations the hub
    refreshes [qnet_diag_*] gauges in the registry and, if a sink is
    installed ([--diagnostics-out]), emits one JSONL snapshot line.
    {!snapshot_json} serves the same document on demand — the payload
    behind the metrics server's [/diagnostics.json] and [/dashboard].

    {b GC profiling.} {!gc_tick} folds [Gc.quick_stat] deltas into
    [qnet_gc_*] families, with minor words read exactly from
    [Gc.minor_words] ([quick_stat]'s only advance at a minor
    collection). [quick_stat] does not walk the heap, so a
    per-iteration tick is safe; deltas are clamped non-negative
    because minor counters are domain-local and the tick may be called
    from more than one domain over a run. *)

type t
(** A diagnostics hub. Hubs are domain-safe; all entry points may be
    called concurrently. *)

val create :
  ?registry:Metrics.registry ->
  ?window:int ->
  ?publish_every:int ->
  unit ->
  t
(** [window] (default 512) bounds the per-chain per-queue sample
    memory used for split-R̂ and quantiles — older samples age out,
    which doubles as burn-in forgetting. [publish_every] (default 10)
    is the gauge/sink refresh period in observations. Raises
    [Invalid_argument] if [window < 8] or [publish_every < 1]. *)

val default : t
(** The process-wide hub the built-in instrumentation feeds, bound to
    {!Metrics.default}. *)

val reset : t -> unit
(** Drop all accumulated state (chains, windows, GC baseline) —
    between independent runs in one process, and in tests. *)

(** {1 Feeding} *)

val observe_iteration :
  t -> chain:int -> ?waiting:float array -> float array -> unit
(** [observe_iteration t ~chain means] records one StEM iterate for
    [chain]: [means] is the realized mean service per queue;
    [?waiting] the realized mean waiting per queue (enables the
    waiting-vs-service decomposition). Non-finite entries are skipped
    and counted, never poisoning the accumulators. The first call
    fixes the hub's queue count; later calls with a different length
    are rejected with [Invalid_argument]. *)

val gc_tick : t -> unit
(** Fold a [Gc.quick_stat] delta since the previous tick into the
    [qnet_gc_*] metric families and the snapshot's [gc] block. *)

val set_arrival_queue : t -> int -> unit
(** Mark the virtual arrival queue so the convergence verdict and the
    bottleneck ranking skip it (its R̂ is structurally inflated — see
    the caveat on [Qnet_runtime.Supervisor]'s [rhat]). *)

val set_chain_status : t -> chain:int -> string -> unit
(** Record a chain's latest supervisor verdict ("healthy",
    "quarantined: …", "dead: …") for the snapshot and dashboard. *)

val set_ensemble_status : t -> string -> unit
(** Record the run-level verdict ("running", "quorum", "degraded",
    "failed"). *)

val set_sink : t -> (string -> unit) option -> unit
(** Install (or remove) a callback receiving one JSON document per
    publish — the [--diagnostics-out] JSONL stream. Called under the
    hub lock; keep it fast and never let it raise. *)

(** {1 Snapshots} *)

type queue_summary = {
  queue : int;
  samples : int;  (** accepted (finite) iterates pooled over chains *)
  mean_service : float;
  service_q05 : float;
  service_q50 : float;
  service_q95 : float;  (** pooled quantiles over the recent windows *)
  mean_waiting : float;  (** [nan] until waiting observations arrive *)
  wait_fraction : float;
      (** waiting / (waiting + service) — the localization signal: the
          service-queue maximum is the posterior's current bottleneck *)
  rhat : float;  (** split-R̂ over per-chain recent windows *)
  ess : float;  (** pooled one-pass ESS over full chain histories *)
  ess_per_sec : float;
  acf1 : float;  (** mean lag-1 autocorrelation across chains *)
}

type gc_summary = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;  (** last observed, not a delta *)
}

type kernel_summary = {
  piecewise_bounded : float;
  piecewise_tail : float;
  piecewise_point : float;  (** compiled-conditional kinds drawn *)
  slice_steps : float;
  slice_shrinks : float;  (** shrink rejections inside slice transitions *)
}

type chain_summary = { chain : int; iterations : int; status : string }

type snapshot = {
  ts : float;  (** wall-clock seconds ({!Clock.now}) *)
  wall_seconds : float;  (** since the hub's first observation *)
  iterations_total : int;
  skipped_samples : int;
  ensemble_status : string;
  chains : chain_summary array;  (** sorted by chain id *)
  queues : queue_summary array;  (** indexed by queue *)
  arrival_queue : int;  (** -1 when unset *)
  max_rhat : float;  (** over service queues; [nan] until computable *)
  converged : bool;  (** [max_rhat] finite and below 1.05 *)
  bottleneck : int;
      (** service queue with the largest [wait_fraction]; -1 unknown *)
  gc : gc_summary;
  kernels : kernel_summary;
}

val snapshot : t -> snapshot
(** A consistent point-in-time read of everything above. *)

val to_json : snapshot -> string
(** One-line JSON document (non-finite numbers render as [null]) —
    the [/diagnostics.json] body and the [--diagnostics-out] line
    format. *)

val snapshot_json : t -> string
(** [to_json (snapshot t)]. *)

val publish : t -> unit
(** Refresh the [qnet_diag_*] gauges from a fresh snapshot and emit a
    sink line. Runs automatically every [publish_every] observations;
    call it directly at run end so the final state is exported. *)

val register_metrics : ?registry:Metrics.registry -> unit -> unit
(** Force-register every unlabeled diagnostics family
    ([qnet_diag_*], [qnet_gc_*], [qnet_slice_*]) so a scrape exports
    present zeros from run entry — the same convention the supervisor
    families follow. Per-queue labeled gauges appear on first
    publish. *)
