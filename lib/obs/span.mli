(** Nestable timed spans with a bounded ring buffer and a JSONL trace
    format — the self-applied analogue of the paper's trace analysis:
    instrument the inference runtime the way we'd want the measured
    services instrumented.

    {!with_span} is the one scoped phase primitive: tracing and the
    allocation profiler ({!Prof}) share its phases and its one
    per-domain frame stack. When tracing is enabled, a finished phase
    is pushed as a span into a fixed-capacity ring buffer (oldest spans
    overwritten, overwrites counted in {!dropped}), so a run that never
    drains the tracer still has bounded memory. When a profiling
    session runs, the same frame charges the phase's self time and
    self bytes to its path ({!Prof.record_site}). So one run's span
    tree and profile hold the same paths. Phases nested on one domain
    get parent links; a phase opened on a freshly spawned domain is a
    root.

    Off (both switches, the default), a phase costs two atomic loads
    and then [f ()]: no clock read, no allocation beyond the caller's
    thunk, no [Domain.DLS] access. {!enable} and [Prof.start] are the
    only switches.

    Systhreads of one domain share its stack, so two threads'
    overlapping phases interleave: one opened while another thread's
    phase is open becomes its child. The serve shard workers are such
    threads. A profiled phase on a systhread is charged everything its
    domain allocated while it was open. *)

type span = {
  id : int;  (** unique within the process, dense from 1 *)
  parent : int option;
  name : string;
  start : float;  (** seconds since the process clock origin, monotonic *)
  duration : float;
  attrs : (string * string) list;
}

val enable : ?capacity:int -> unit -> unit
(** Start tracing into a ring of [capacity] spans (default 65536).
    Clears any previously buffered spans. Registers
    [qnet_trace_dropped_total] in {!Metrics.default} before any domain
    can record. *)

val disable : unit -> unit

val enabled : unit -> bool

val with_span : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [with_span name f] runs [f] as the phase [name]: a span covering
    it when tracing is on, its self cost charged to its path when a
    profiling session runs. The phase is recorded (and the stack
    unwound) even when [f] raises. With both off this is [f ()] behind
    two atomic loads. *)

val emit :
  ?attrs:(string * string) list -> start:float -> duration:float -> string -> unit
(** [emit ~start ~duration name] records an externally measured span —
    a phase whose endpoints live on different threads (queue-wait,
    end-to-end request latency), where no single {!with_span} scope
    exists. Always a root span; [start] is seconds on the
    {!Clock.elapsed} scale; negative durations clamp to 0. No-op when
    tracing is disabled. *)

val drain : unit -> span list
(** Buffered spans in completion order; empties the buffer. *)

val dropped : unit -> int
(** Spans overwritten before being drained since {!enable}. Each
    overwrite also increments the [qnet_trace_dropped_total] metrics
    counter. *)

val dropped_by_domain : unit -> (int * int) list
(** Overwrites attributed to the domain that recorded the overwriting
    span, as [(domain_id, count)] sorted by domain id. Sums to
    {!dropped}. *)

val to_json : span -> string

val of_json : string -> (span, string) result
(** Parse one line as written by {!to_json}. *)

val write_jsonl : ?dropped:int -> out_channel -> span list -> unit
(** One span per line; when [dropped] is given a final
    [{"meta":"qnet_trace","dropped":N}] trailer records how many spans
    the ring overwrote before the drain, so readers can report the
    loss. *)

type read_result = {
  spans : span list;
  malformed : int;  (** unparseable non-blank lines skipped *)
  dropped : int;  (** summed from [meta] trailer lines (0 if absent) *)
}

val read_jsonl : string -> (read_result, string) result
(** Lenient read of a {!write_jsonl} file; [Error] only if the file
    itself cannot be read. *)

val to_folded : span list -> (string * int) list
(** Collapse a span log into flamegraph folded-stack form: one entry
    per distinct ancestry path ([root;child;leaf]), valued by the
    {e self} time (duration minus direct children) of all spans on
    that path, in integer microseconds. Entries with zero rounded self
    time are dropped; spans whose parent is missing from the log
    (overwritten in the ring) root their stack at themselves. Frame
    names are sanitized ([';'] and whitespace replaced) so the output
    feeds [flamegraph.pl] / speedscope unchanged. Deterministically
    sorted by stack. *)

val write_folded : out_channel -> span list -> unit
(** {!to_folded} rendered one [stack count] line at a time. *)

(** Aggregate a span log into a per-phase wall-time breakdown. *)
module Summary : sig
  type phase = {
    name : string;
    count : int;
    total : float;  (** summed span durations *)
    self : float;  (** total minus time spent in direct child spans *)
    max_duration : float;
  }

  type t = {
    wall : float;  (** earliest start to latest end over the whole log *)
    spans : int;
    phases : phase list;  (** sorted by self time, descending *)
    coverage : float;
        (** fraction of [wall] covered by root spans — how much of the
            run the instrumentation accounts for *)
  }

  val of_spans : span list -> t

  val pp : Format.formatter -> t -> unit
  (** Human-readable table: one row per phase with count, total, self
      and percent-of-wall columns. *)
end
