(** Observation models: which departure times the system actually
    measured.

    The paper's premise is that full instrumentation is too expensive,
    so only a subset of arrival times is recorded (plus, always, the
    per-queue event counters that fix arrival order). Because the
    arrival of an event is the departure of its within-task
    predecessor, an observation mask is a boolean array over event
    {e departures} in the trace's canonical order. *)

type scheme =
  | All  (** full instrumentation (useful for tests) *)
  | Task_fraction of float
      (** observe every arrival of a uniformly chosen fraction of
          tasks — the sampling scheme of the paper's §5.1 experiments *)
  | Event_fraction of float
      (** observe each arrival independently with the given
          probability *)
  | Explicit_tasks of int list
      (** observe every arrival of exactly these task ids *)

val validate : scheme -> (unit, string) result

val mask : Qnet_prob.Rng.t -> scheme -> Qnet_trace.Trace.t -> bool array
(** [mask rng scheme trace] returns the departure-observed flags
    aligned with [trace.events]. A task "fully observed" means every
    departure is fixed: in the paper's event model the transition into
    the FSM's final state is itself an event, so a task's completion
    time (its last departure) is among its observed arrival times.
    For [Task_fraction f], at least one task is always selected so the
    posterior is anchored. Raises [Invalid_argument] if the events are
    not in [Trace.t]'s canonical order (ascending by task, and by
    arrival within a task). *)

val observed_tasks : Qnet_trace.Trace.t -> bool array -> int list
(** Task ids, ascending, all of whose departures are observed under
    the mask — i.e. tasks the mean-observed-service baseline may use.
    Raises [Invalid_argument] on events out of canonical order, as
    {!mask} does. *)

val fraction_events_observed : bool array -> float
(** Fraction of [true] entries. *)
