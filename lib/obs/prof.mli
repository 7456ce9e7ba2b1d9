(** Allocation and GC-pause profiler — the "where do the bytes and the
    pauses go" layer under the hot-path roadmap work.

    {b Bytes.} The phases are [Span.with_span]'s, on its one
    per-domain frame stack. While a session runs, each phase charges
    its {e self} cost (its total minus its nested phases), counted with
    {!allocated_words} and the clock, to its path through
    {!record_site}, so a traced run's span tree and the site table hold
    the same paths. A phase is charged what its domain allocated while
    it was open: on a systhread, other threads' allocation too, and two
    threads' overlapping phases interleave on the shared stack (see
    [Span]). The site table folds into flamegraph folded-stack lines
    ({!to_folded}, the same [stack count] format as [Span.to_folded],
    valued in bytes), so [qnet_trace_tool flamegraph-diff] can diff
    before/after runs.

    {b Pauses.} The first session starts the runtime's event rings
    ([Runtime_events], one ring per domain, in the file
    [<pid>.events] under [$OCAML_RUNTIME_EVENTS_DIR] or the working
    directory); later sessions resume them and {!stop} pauses them.
    One cursor on this process pairs each ring's [runtime_begin] with
    its [runtime_end]: [EV_MINOR] is a [Minor] pause, [EV_MAJOR_SLICE]
    a [Major] one, [EV_EXPLICIT_GC_COMPACT] a [Compaction]. Every
    domain reports its own share of a collection, so with [k] domains
    running one minor collection is [k] minor pauses. The intervals
    between the ends of major cycles on ring 0 fill the major-cycle
    histogram. The rings are read at each phase's close (skipped when
    another domain is reading them), at {!stop} and in
    {!snapshot_json}; events the runtime overwrote before they were
    read count as lost. If the ring directory cannot take a file the
    runtime would abort the process, so the session runs without pause
    data and the snapshot says why. Histograms sit on the telemetry
    SLO ladder (decades, 1µs–100s).

    {b Cost contract.} Off (the default) the profiler adds one atomic
    load per gated site — with tracing off too, a phase is its thunk
    behind two atomic loads, with no clock read, no allocation and no
    [Domain.DLS] access — never starts [Runtime_events] and creates no
    [qnet_prof_*] series in the default registry. On, each phase costs
    two clock reads, two allocation-counter reads, one table update
    and one ring poll. *)

val start : unit -> unit
(** Start a profiling session, clearing any stopped session's data.
    Forces a minor collection and a major slice before it reads the GC
    counters. A no-op if a session is already running. *)

val stop : unit -> unit
(** Stop the session: force a minor collection and a major slice, read
    the rings, pause them, and freeze the GC counters and duration the
    snapshot reports. The forced collection is the session's last minor
    pause and counts as one of its collections. Idempotent. The
    session's data stays readable ({!snapshot_json}, {!to_folded})
    until the next [start]. *)

val running : unit -> bool

(** {1 Attribution} *)

val allocated_words : unit -> float
(** Words the calling domain has allocated so far: [Gc.minor_words ()]
    plus the words allocated directly on the major heap. Exact at any
    point, unlike the minor count of [Gc.counters], which on OCaml 5.1
    only advances at a minor collection. Works without a session. *)

val record_site : stack:string list -> bytes:float -> self_seconds:float -> unit
(** Credit [bytes] and [self_seconds] to an explicit stack (root
    first) and to its leaf on the calling domain, then read the rings.
    A closing phase charges its self cost this way; tests inject sites
    with it. Frames go through {!folded_frame}. No-op when not running;
    non-finite or negative [bytes] ignored. *)

val folded_frame : string -> string
(** [name] as one [;]-separated component of a folded stack line:
    [;] becomes [:], whitespace [_], other control characters [?], and
    the empty name [(anonymous)]. The site table's paths and
    [Span.to_folded]'s stacks both use it. *)

(** {1 Pauses} *)

type pause_kind = Minor | Major | Compaction

val record_pause : pause_kind -> float -> unit
(** Record one pause of [seconds] into the kind's histogram; the ring
    consumer records through it too. No-op when not running; negative
    values clamp to 0. *)

type pause_stats = { count : int; p50_s : float; p99_s : float }
(** Quantiles are {!Metrics.Histogram.quantile} estimates ([nan] when
    [count = 0]). *)

val pause_summary : unit -> (pause_kind * pause_stats) list
(** Always three entries, [Minor; Major; Compaction] order, from the
    current or most recent session (all-zero when none), as of the
    last ring read. *)

val major_cycle_summary : unit -> pause_stats
(** Intervals between the ends of major GC cycles. *)

(** {1 Export} *)

val to_folded : unit -> (string * int) list
(** The site table as folded-stack lines valued in (integer) bytes,
    deterministically sorted by stack; zero-byte sites are dropped.
    Empty when no session has run. *)

type phase_self = {
  path : string;  (** sanitized [;]-joined phase stack *)
  samples : int;
  bytes : float;
  self_seconds : float;
}

val sites : unit -> phase_self list
(** Site table sorted by bytes descending. *)

val phase_split : unit -> (string * float) list
(** Leaf-phase self-time split summed over domains, as
    [(leaf_phase, self_seconds)] sorted by self time descending. *)

val allocated_bytes : unit -> float
(** Process-wide bytes allocated in the session ([Gc.quick_stat]
    delta, up to its stop), 0 when no session. On OCaml 5.1
    [quick_stat]'s minor words advance only at a minor collection and
    its major words only at a major slice, so {!start} and {!stop}
    each force both before they read: over a stopped session the delta
    holds every byte its phases allocated, and so at least the site
    table's total, which the phases count with {!allocated_words}.
    While a session runs, a read lags by what the minor heaps hold and
    what reached the major heap since its last slice. *)

val snapshot_json : unit -> string
(** One self-contained JSON object: session state, the site table
    (top 512 rows by bytes), GC-counter deltas over the session,
    pause and major-cycle histograms (count/p50/p99) with the lost
    event count, or the reason pause data is unavailable, an rusage
    sample, and per-domain leaf-phase self-time rollups. Reads the
    rings first when the session runs. Also refreshes the
    [qnet_prof_*] gauges in the default metrics registry. Served by
    [qnet_serve GET /profile.json] and written by
    [qnet_infer --profile-out]. *)

type stats = {
  is_running : bool;
  site_rows : int;
  pauses_recorded : int;
  lost_events : int;  (** ring events overwritten before they were read *)
  runtime_events_started : bool;
      (** a session of this process has started [Runtime_events] *)
}

val stats : unit -> stats
(** Cheap counters for tests and the off-by-default overhead guard. *)

(** Process resource usage, read from [/proc] (Linux); [None] where
    unavailable. *)
module Rusage : sig
  type t = {
    utime_s : float;  (** user CPU seconds (USER_HZ assumed 100) *)
    stime_s : float;  (** system CPU seconds *)
    rss_bytes : float;  (** current resident set *)
    max_rss_bytes : float;  (** peak resident set (VmHWM) *)
  }

  val sample : unit -> t option
end
