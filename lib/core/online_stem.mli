(** Online (windowed) inference — the paper's §6 closes by naming
    "online, distributed inference" as the payoff of the probabilistic
    viewpoint; this module provides the windowed variant.

    The trace is cut into consecutive wall-clock windows by task entry
    time; each window is fit with a short StEM run warm-started from
    the previous window's parameters. The result is a {e parameter
    trajectory}: time-varying arrival rate (e.g. Figure 5's load ramp)
    and drifting service rates (e.g. a degrading disk) become visible,
    which a single whole-trace fit averages away.

    Windowing uses each task's entry timestamp from the trace, which
    the event-counter instrumentation provides even for tasks whose
    arrival times are not individually logged (order + coarse window
    assignment is far cheaper than full timestamps). *)

type step = {
  window : float * float;
  num_tasks : int;
  params : Params.t;  (** post-burn-in averaged StEM estimate *)
  mean_service : float array;
}

type config = {
  num_windows : int;  (** default 6 *)
  iterations : int;  (** StEM iterations per window (default 80) *)
  min_tasks : int;
      (** windows with fewer tasks are skipped (their entry is recorded
          with the previous parameters; default 10) *)
}

val default_config : config

val run :
  ?config:config ->
  ?init:Params.t ->
  ?on_warning:(string -> unit) ->
  Qnet_prob.Rng.t ->
  Qnet_trace.Trace.t ->
  mask:bool array ->
  step list
(** [run rng trace ~mask] splits the trace's tasks into
    [config.num_windows] equal wall-clock windows and fits each.
    [init] warm-starts the first window (later windows always
    warm-start from their predecessor) — this is what lets a serving
    shard run short incremental refits against a previous posterior
    instead of re-estimating from scratch.
    [mask] is the observation mask over the full trace's canonical
    event order (as produced by {!Observation.mask}).

    Windowing is tolerant of messy ingestion, reporting each
    degradation through [on_warning] (default: silently ignored)
    rather than failing the whole trajectory: tasks whose entry
    timestamp is NaN/±inf, and tasks with no entry event at all, are
    dropped with a warning; out-of-order entry timestamps are flagged
    but cost nothing (windows are assigned by timestamp value, which
    is equivalent to sorting first); and when every surviving entry
    coincides, unit-width windows are used so a window can never be
    empty or inverted. Raises [Invalid_argument] only when no task has
    a finite entry timestamp, the mask length mismatches, or
    [num_windows < 1]. *)

val arrival_rate_trajectory : step list -> (float * float) list
(** [(window midpoint, λ̂)] per step — the series to plot against a
    known ramp. *)
