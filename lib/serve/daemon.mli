(** The serving daemon: shards, admission control, and the HTTP
    surface, sharing one listener with the telemetry endpoints.

    A daemon owns [config.shards] {!Shard}s (each with its own data
    directory, worker thread and bounded ingest queue), a
    {!Ingest.Dead_letter} quarantine, optional file tailers, and a
    {!Qnet_webapp.Metrics_server} started with a [handler] that mounts
    the serving routes next to the built-in [/metrics], [/dashboard],
    etc.:

    - [POST /ingest] — a JSONL batch. Each decoded record first passes
      the per-tenant Bernoulli {!Admission} coin (AIMD-driven by shard
      queue occupancy and refit lag; records thinned this way are
      reported as [sampled_out], not errors). Backpressure on the
      admitted subset is {e batch-atomic}: the batch is decoded with
      no side effects first, and if any target shard's queue cannot
      take its admitted share the {e whole} batch is rejected with
      [429] + a [Retry-After] computed from the shard's measured drain
      rate (clamped to 1–30 s), and nothing is counted, quarantined or
      enqueued. A client that retries the whole batch on 429 therefore
      never double-quarantines a poison line — which is what makes
      "dead-letter count == injected poison count" an assertable
      invariant in the soak test.
    - [GET /shards.json] — per-shard health verdicts, including the
      degradation-ladder [level]/[degraded_reason] and the durable-log
      replay accounting ([replayed_events], [log_corrupt_frames],
      [log_torn_tails]).
    - [GET /tenants/:id/posterior.json] — the tenant's latest
      posterior with a [stale] flag ([true] when it came from a
      checkpoint and has not been refreshed, when the owning shard is
      not currently healthy, or when the shard is pinned to stale
      serve), the fit mode that produced it, and the tenant's current
      admission rate plus effective retained [sampling_fraction] (the
      correction factor for arrival-rate estimates under thinning).
      Never a 500: unknown tenants get 404, known-but-unfitted tenants
      get [ready:false].
    - [GET /fleet.json] — the {!Fleet} SLO snapshot: per-tenant
      p50/p95/p99 over the ingest / queue-wait / refit / serve phases
      plus the bottleneck ranking; [GET /fleet] serves the
      self-contained HTML panel that polls it.
    - [GET /profile.json] — the {!Qnet_obs.Prof} snapshot (allocation
      site table, GC pause histograms, rusage); [POST /profile/start]
      (no body) and [POST /profile/stop] profile a live shard without
      restart. A stopped session's snapshot stays readable, so start →
      soak → stop → scrape works.

    Tenants are routed to shards by a stable FNV-1a hash
    ({!Router.shard_of_tenant}), so a restarted daemon routes every
    tenant to the shard whose checkpoint holds its posterior. *)

type config = {
  shards : int;
  data_dir : string;  (** per-shard state lives in [data_dir/shard-N] *)
  host : string;
  port : int;  (** [0] picks an ephemeral port *)
  retry_ephemeral : bool;
      (** survive a port collision by falling back to an ephemeral
          port (see {!Qnet_webapp.Metrics_server.start}) *)
  dead_letter : string option;  (** [None]: count-only quarantine *)
  tail_files : string list;  (** files to tail as JSONL/CSV sources *)
  tail_policy : Bounded_queue.policy;
      (** what a tailer does on a full queue: [Block] (default
          posture: a tailer can fall behind) or [Shed] *)
  shard : Shard.config;
  admission : Admission.config;
  faults : Qnet_runtime.Fault.service_fault list;
  trace_sample_rate : float;
      (** head-based sampling rate for end-to-end request traces,
          decided once when the record is admitted at [POST /ingest]
          and carried through queue, refit and serve (default 0.01) *)
  trace_seed : int;
      (** seed for the deterministic trace sampler: the same seed and
          ingest order sample the same requests (default 1) *)
  profile_on_start : bool;
      (** start a {!Qnet_obs.Prof} session as soon as the daemon is up
          (default false; a live daemon can always be profiled
          on-demand via [POST /profile/start]) *)
}

val default_config : config
(** 2 shards, [./qnet-serve-data], loopback port 8099, no fallback,
    dead letter at [data_dir/dead-letter.jsonl], no tails, [Block],
    {!Shard.default_config}, {!Admission.default_config}, no faults,
    1% trace sampling with seed 1. *)

type t

val create : config -> (t, string) result
(** Force-registers the [qnet_serve_*] metric families, starts every
    shard (resuming from its data directory when checkpoints exist),
    opens the dead-letter file, starts the HTTP listener and the file
    tailers. [Error] on a bind failure, an invalid shard config, or an
    unusable data directory — partially started pieces are torn down. *)

val port : t -> int
val fell_back : t -> bool
val shards : t -> Shard.t list
val dead_letter_count : t -> int

val healthy_shards : t -> int
(** Shards currently reporting {!Shard.Healthy}. *)

val handle : t -> Qnet_webapp.Metrics_server.request ->
  Qnet_webapp.Metrics_server.response option
(** The route handler (exposed for in-process tests; the listener
    already consults it). *)

val stop : t -> unit
(** Graceful: stop the tailers, stop every shard (final checkpoint),
    stop the listener, close the dead letter. Idempotent. *)
