(** The tasks of a trace as runs of its events.

    [Trace.t] promises events sorted by [(task, arrival)], so each task
    is one contiguous run, and the runs come in ascending task id. *)

val starts : caller:string -> Qnet_trace.Trace.t -> int array
(** [starts ~caller trace] has one entry per task plus one: task [k]
    (the [k]-th smallest id) owns events [starts.(k)] to
    [starts.(k + 1) - 1], and the last entry is the event count.
    Raises [Invalid_argument] naming [caller] when the events are not
    ascending by task, or not ascending by arrival within a task. *)

val out_of_order : caller:string -> int -> 'a
(** [out_of_order ~caller i] raises the [Invalid_argument] {!starts}
    raises when event [i] is the first out of order. *)
