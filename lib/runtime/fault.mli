(** Deterministic fault injection for trace CSVs.

    Reproduces the corruption modes real trace pipelines exhibit —
    at-least-once duplication, truncated writes, NaN fields from broken
    exporters, cross-host clock skew, reversed intervals, and arbitrary
    reordering — so lenient ingestion ({!Qnet_trace.Trace.of_csv_lenient})
    can be exercised by tests and demos against a known-good file.
    Injection is a pure function of the input text and the RNG state:
    the same seed always produces the same corrupted file. *)

type mode =
  | Duplicate  (** re-emit records (at-least-once delivery) *)
  | Truncate  (** cut lines short mid-field (torn writes) *)
  | Nan_field  (** replace a departure with ["nan"] *)
  | Clock_skew  (** shift one arrival off its predecessor's departure *)
  | Reversed  (** swap arrival/departure, departure < arrival *)
  | Reorder  (** shuffle the line order of the whole file *)

val all_modes : mode list
val mode_label : mode -> string

val inject :
  ?per_mode:int ->
  Qnet_prob.Rng.t ->
  string ->
  string * (mode * int) list
(** [inject rng csv] corrupts [per_mode] (default [max 1 (lines/25)])
    randomly chosen data lines per mode of {!all_modes}, in that
    order, and returns the corrupted text together with the
    number of corruptions actually applied per mode (a mode can fall
    short when no line is eligible — e.g. no non-initial line for
    [Clock_skew]). The header line is never touched. *)

(** {1 Chain-level fault injection}

    Deterministic injections for the multi-chain supervisor
    ({!Supervisor}): instead of corrupting the {e input} trace, these
    faults hit a {e running} chain at a chosen iteration, exercising
    the watchdog (stall), crash recovery (crash), and divergence
    quarantine (latent corruption) paths. Each fault fires at most
    once: a chain restarted from its last good checkpoint re-runs the
    faulted iteration cleanly, which is exactly the recovery being
    tested. *)

type chain_fault_kind =
  | Chain_stall of float
      (** the chain sleeps this many seconds mid-iteration — a stuck
          sweep from the watchdog's point of view *)
  | Chain_crash  (** raises {!Injected_crash} mid-iteration *)
  | Chain_corrupt_latent
      (** overwrites one unobserved departure with NaN after the
          M-step, the way real memory corruption would — caught by
          {!Health.check} at the next barrier *)

type chain_fault = { chain : int; at_iteration : int; kind : chain_fault_kind }

exception Injected_crash of { chain : int; iteration : int }

val corrupt_one_latent : Qnet_core.Event_store.t -> bool
(** Set the middle unobserved departure to NaN (via snapshot/restore,
    bypassing [set_departure]'s NaN guard the way real corruption
    does). Returns [false] when the store has no latent events. *)

val parse_chain_fault : string -> (chain_fault, string) result
(** Parse a [CHAIN:KIND[=ARG]@ITER] spec as accepted by
    [qnet_infer --chain-fault]: ["1:stall@5"] (default 0.25 s),
    ["1:stall=0.4@5"], ["2:crash@8"], ["3:corrupt@6"]. *)

(** {1 Service-level fault injection}

    Faults for the serving layer ({!Qnet_serve.Daemon}): where chain
    faults hit a sampler at a chosen {e iteration}, service faults hit
    a {e shard} of the long-running daemon at a chosen wall-clock
    offset from daemon start — the natural trigger for a soak test
    that streams load while the failure fires. Each fault fires at
    most once (except [Slow_consumer], which opens a throttling window
    of the given duration). *)

type service_fault_kind =
  | Ingest_stall of float
      (** the shard's ingest loop sleeps this many seconds without
          draining its queue — upstream sees queue growth, shedding
          and HTTP 429 *)
  | Shard_crash
      (** raises {!Injected_shard_crash} in the shard worker — the
          daemon must restart the shard with backoff from its retry
          budget *)
  | Checkpoint_write_failure
      (** the shard's next checkpoint write fails as a [Sys_error] —
          the shard must keep serving and retry at the next round *)
  | Slow_consumer of float
      (** for this many seconds the shard drains at most one event per
          poll — sustained backpressure rather than a one-shot stall *)
  | Torn_write
      (** tear the shard's durable event log mid-frame: the current
          tail is chopped inside a record, the torn segment rotated
          aside, and log compaction suspended so the damage survives to
          the next start — replay must truncate back to the last valid
          frame *)
  | Bit_flip
      (** flip one payload bit in a durable-log frame and suspend
          compaction — replay must quarantine exactly that frame and
          resume from the surviving ones *)
  | Overload of float
      (** from the arm time onward the shard drains at most this many
          events per second — sustained overload that forces admission
          sampling and the degradation ladder, recovering only when
          offered load drops *)

type service_fault = {
  shard : int;
  after : float;  (** seconds after daemon start *)
  kind : service_fault_kind;
}

exception Injected_shard_crash of { shard : int }

val service_fault_label : service_fault -> string

val parse_service_fault : string -> (service_fault, string) result
(** Parse a [SHARD:KIND[=ARG]@SECONDS] spec as accepted by
    [qnet_serve --fault]: ["0:ingest-stall=1.5@4"] (default 1 s),
    ["1:crash@6"], ["0:ckpt-fail@8"], ["1:slow=2@3"] (default 2 s),
    ["0:torn-write@6"], ["0:bit-flip@8"], ["1:overload=50@3"]
    (argument required: max drain rate in events/s). *)
