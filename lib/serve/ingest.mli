(** Ingestion hardening: turning untrusted stream lines into typed
    trace records, with a dead-letter file for the rest.

    The serving daemon receives trace events line by line — JSONL over
    HTTP POST, or tailed from a file a collector appends to. The
    philosophy is {!Qnet_trace.Trace.of_csv_lenient}'s, applied at the
    stream boundary: a poison line must never take down a shard, so
    decoding is total ([Error], never an exception), every reject is
    classified with a reason, and rejects are quarantined to an
    append-only dead-letter file where an operator can replay them
    after fixing the exporter.

    Two line shapes are accepted:
    - JSON: [{"tenant":"acme","task":3,"state":0,"queue":1,
      "arrival":0.5,"departure":0.9}] (["state"] optional, unknown
      keys ignored);
    - CSV: [tenant,task,state,queue,arrival,departure].

    Validation here is {e syntactic and local}: fields parse, times
    are finite and non-negative, the queue id is in range, the tenant
    key is sane. Cross-event repairs (duplicates, broken chains,
    reversed intervals) are left to the lenient trace rebuild at fit
    time, which sees the whole buffer and can do them properly. *)

type record = {
  tenant : string;
  task : int;
  state : int;
  queue : int;
  arrival : float;
  departure : float;
}

val decode_line : num_queues:int -> string -> (record, string) result
(** Total: the [Error] is a short reason ("bad json: ...",
    "queue 7 out of range", ...). *)

val to_json_line : record -> string
(** Canonical JSONL rendering; [decode_line] round-trips it. A shard
    compacts its event log to this form; between compactions the log
    holds each record's line as it was decoded. *)

val to_trace_event : record -> Qnet_trace.Trace.event

val valid_tenant : string -> bool
(** 1–64 chars drawn from [A-Za-z0-9._-] — keys appear in URLs,
    metric labels and file names, so the alphabet is restrictive by
    design. *)

(** Append-only quarantine for lines that failed {!decode_line}. One
    JSON object per line: [{"reason":...,"line":...}]. Writes never
    raise — a full disk degrades to counting only, because the
    dead-letter file is an aid, not a dependency the ingest path is
    allowed to die on. *)
module Dead_letter : sig
  type t

  val open_ : path:string -> (t, string) result
  (** Opens (creating or appending) the quarantine file. *)

  val null : unit -> t
  (** A sink that only counts — for tests and [--no-dead-letter]. *)

  val write : t -> line:string -> reason:string -> unit
  val count : t -> int
  (** Lines quarantined through this handle (not historical file lines). *)

  val close : t -> unit
end
