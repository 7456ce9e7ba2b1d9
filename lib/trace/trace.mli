(** Event traces: the common currency between the simulator, the
    observation model, and the inference engine.

    A trace is the complete record of a set of tasks flowing through a
    queueing network — one {!event} per (task, queue-visit), including
    the special initial event at the arrival queue [q0] (arrival time
    0, departure = the time the task entered the system, per Section 2
    of the paper). *)

type event = {
  task : int;  (** task identifier *)
  state : int;  (** FSM state that emitted this visit *)
  queue : int;  (** queue visited *)
  arrival : float;  (** time the task joined the queue *)
  departure : float;  (** time service completed *)
}

type t = {
  num_queues : int;
  num_tasks : int;
  events : event array;
      (** sorted by [(task, arrival)]; each task's first event is its
          initial event *)
}

val create : num_queues:int -> event list -> t
(** [create ~num_queues events] groups, sorts and validates a raw
    event list into a trace. Validation checks: non-negative times,
    [departure >= arrival] per event, in-range queue ids, each task's
    events form a chain ([arrival] of each non-initial event equals
    the [departure] of the task's previous event, within 1e-9), and
    exactly one initial event per task. Raises [Invalid_argument]
    otherwise. *)

val events_of_task : t -> int -> event array
(** Events of one task in path order (initial event first). *)

val tasks : t -> int array
(** The distinct task ids, ascending. *)

val queue_events : t -> int -> event array
(** Events at one queue in arrival order. *)

val service_times : t -> int -> float array
(** Realized service times at a queue, in arrival order:
    [departure - max arrival (previous departure)] under FIFO. *)

val waiting_times : t -> int -> float array
(** Realized waiting times at a queue, in arrival order:
    [max arrival (previous departure) - arrival]. *)

val response_times : t -> int -> float array
(** [departure - arrival] per event at a queue. *)

val end_to_end_response : t -> (int * float) array
(** Per task: total time from system entry (departure of the initial
    event) to the final departure. *)

val utilization : t -> int -> float
(** Busy fraction of a queue's server over the trace's time span. *)

val span : t -> float * float
(** [(earliest arrival, latest departure)] over all events. *)

val to_csv : t -> string
(** Serialize as CSV with header [task,state,queue,arrival,departure]
    (times printed with 17 significant digits, round-trippable). *)

val of_csv : num_queues:int -> string -> (t, string) result
(** Parse the format written by {!to_csv}. Strict: the first corrupt
    line rejects the whole file. A float field is read in place by
    {!Decimal.float_of_substring}, so it takes exactly the value, and
    is rejected exactly where, [float_of_string] on the field's text
    would. *)

(** {1 Lenient ingestion}

    Production trace files are dirty: truncated writes, NaN fields
    from broken exporters, duplicated records from at-least-once
    shippers, clock skew between hosts. Lenient mode classifies and
    skips corrupt records instead of rejecting the file, then repairs
    the task chains so the surviving events still satisfy every model
    constraint ({!create} and [Event_store.of_trace] both succeed on
    the result). *)

type corruption =
  | Malformed_line  (** truncated line / wrong field count / unparseable *)
  | Nan_field
  | Negative_time
  | Out_of_order  (** departure earlier than arrival *)
  | Bad_queue
  | Duplicate_event
  | Broken_chain  (** clock skew: arrival disagrees with predecessor departure *)
  | Missing_initial  (** task has no entry event at time 0 *)
  | Inconsistent_route
      (** task enters at a minority arrival queue, or revisits it *)

val corruption_label : corruption -> string

type line_error = {
  line : int option;  (** 1-based source line; [None] for task-level drops *)
  task_id : int option;
  reason : corruption;
  detail : string;
}

type ingest_report = {
  errors : line_error list;  (** newest first *)
  lines_read : int;
      (** non-empty lines, header included; for {!of_events_lenient},
          the events given *)
  events_kept : int;
  events_dropped : int;
  tasks_dropped : int;  (** tasks dropped wholesale (partial drops are events) *)
}

val pp_ingest_report : Format.formatter -> ingest_report -> unit

val of_events_lenient :
  num_queues:int -> event list -> (t * ingest_report, ingest_report) result
(** [of_events_lenient ~num_queues events] keeps as much of [events]
    as the model can hold. Records with a NaN, negative or reversed
    time or an out-of-range queue are classified and skipped; exact
    duplicates are dropped, keeping the first; each task's chain is
    truncated at its first skew or gap and at its first revisit of the
    arrival queue; tasks that enter away from the (majority) arrival
    queue are removed. Errors carry no line. [Error report] only when
    {e no} event survives. *)

val of_csv_lenient :
  num_queues:int -> string -> (t * ingest_report, ingest_report) result
(** [of_csv_lenient ~num_queues text] reads [text] line by line,
    classifies and skips the lines that hold no record, and repairs
    the rest as {!of_events_lenient} does; errors carry their source
    line. *)

val load_lenient :
  num_queues:int ->
  string ->
  ((t * ingest_report, ingest_report) result, string) result
(** File variant of {!of_csv_lenient}; the outer [Error] is an I/O
    failure. *)

val save : t -> string -> unit
(** [save t path] writes {!to_csv} output to [path]. *)

val load : num_queues:int -> string -> (t, string) result

val pp_summary : Format.formatter -> t -> unit
(** Multi-line human-readable summary: per-queue counts, mean
    service/waiting times, utilization. *)
