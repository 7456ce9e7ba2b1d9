(** Thread-safe metrics registry: counters, gauges, and fixed-bucket
    histograms with labels, safe for concurrent updates from OCaml 5
    domains.

    {b Sharding.} Counters and histograms keep one shard per domain
    (allocated lazily through domain-local storage the first time a
    domain touches the metric). A shard is written only by its owner
    domain, with {e plain} stores into flat cells — the per-event
    fast path is a handful of loads and stores with no atomics and no
    allocation. A scraping domain reads the cells racily: word-sized
    mutable fields never tear under the OCaml memory model, so a
    scrape sees a {e bounded-staleness} snapshot — some recently
    written value per shard, monotone per shard across scrapes — and
    the exact total once a happens-before edge (e.g. [Domain.join] on
    the writers, an atomic a finished job sets, or a mutex handed from
    writer to reader) orders the last update before the read. A shard
    lives as long as the process, not its domain (it holds the
    domain's cumulative contribution), so a domain that exits loses no
    counts. Shards are never pruned, so each domain that ever touched
    a metric adds one shard to it and one step to every read of it;
    the supervisor runs its chains on a fixed pool of domains, which
    bounds their number. Gauges are last-write-wins and use a single
    atomic cell.

    {b Cost.} The global {!enabled} switch gates the hot
    instrumentation sites in the samplers; when it is off they pay one
    atomic load and skip the update entirely. Creation functions are
    idempotent: asking twice for the same (kind, name, labels) returns
    the same metric, so modules can hold lazily-created handles.

    {b Export.} {!to_prometheus} renders the Prometheus text
    exposition format (families sorted by name, samples by label set —
    deterministic, golden-file friendly); {!to_jsonl} renders one JSON
    object per sample per line for machine ingestion. *)

type registry

val create_registry : unit -> registry

val default : registry
(** The process-wide registry every instrumentation site uses unless
    told otherwise. *)

val set_enabled : bool -> unit
(** Master switch for the built-in instrumentation sites (samplers,
    supervisor, checkpoints). Off by default; flipping it on is what
    [--metrics-out] / [--serve-metrics] do. Metric objects themselves
    always work — the switch only gates the hot-path call sites. *)

val enabled : unit -> bool
(** One atomic load; safe to call per event in a sampler inner loop. *)

module Counter : sig
  type t

  val create :
    ?registry:registry ->
    ?help:string ->
    ?labels:(string * string) list ->
    string ->
    t
  (** [create name] registers (or retrieves) a monotone counter.
      Raises [Invalid_argument] on a malformed metric/label name or if
      [name] is already registered as a different kind. *)

  val inc : ?by:float -> t -> unit
  (** Add [by] (default 1.0) to the calling domain's shard. Negative
      increments raise [Invalid_argument]. *)

  val value : t -> float
  (** Sum over all shards. *)
end

module Gauge : sig
  type t

  val create :
    ?registry:registry ->
    ?help:string ->
    ?labels:(string * string) list ->
    string ->
    t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val create :
    ?registry:registry ->
    ?help:string ->
    ?labels:(string * string) list ->
    ?buckets:float array ->
    string ->
    t
  (** [buckets] are upper bounds, strictly increasing; a final [+Inf]
      bucket is implicit. Raises [Invalid_argument] on unsorted or
      non-finite bounds. *)

  val observe : t -> float -> unit
  (** NaN observations are counted separately (see {!nan_count}) and
      excluded from [sum]/buckets, so one corrupted sample cannot
      poison the whole series. *)

  val observe_n : t -> n:int -> float -> unit
  (** [observe_n t ~n v] records [n] identical observations of [v] in
      one bucket scan. Used by stride-sampling instrumentation: time
      every k-th event, observe it with weight k, and [count] still
      tracks the true event count. [n = 0] is a no-op; negative [n]
      raises [Invalid_argument]. *)

  val count : t -> int
  val sum : t -> float
  val nan_count : t -> int

  val cumulative_buckets : t -> (float * int) array
  (** [(upper_bound, cumulative_count)] pairs, Prometheus [le]
      semantics, including the final [(infinity, count)]. *)

  val quantile : t -> float -> float
  (** [quantile t q] estimates the [q]-quantile ([0 <= q <= 1]) by
      linear interpolation across the bucket containing the rank,
      assuming a uniform spread inside each bucket. Returns [nan] on
      an empty histogram; ranks landing in the [+Inf] overflow bucket
      clamp to the largest finite bound (read it as "at least this").
      Raises [Invalid_argument] if [q] is outside [0, 1]. *)
end

val to_prometheus : registry -> string
(** Prometheus text exposition format, version 0.0.4. *)

val to_jsonl : ?ts:float -> registry -> string
(** One JSON object per sample per line; [ts] (wall-clock seconds) is
    attached to every line when given. *)
