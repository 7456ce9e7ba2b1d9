(** Replay mode: turn a simulated trace into a paced multi-tenant
    event stream — the load generator behind the serving daemon's
    chaos soak.

    The simulator produces one consolidated trace; a serving daemon
    ingests {e streams}: events arriving in completion order, tagged
    with a tenant key, interleaved across tenants, at a wall-clock
    rate. {!plan} bridges the two deterministically (no RNG, no
    clock): events are ordered by departure time, each task is
    assigned a stable tenant key, emit offsets are the departure
    times rescaled by [speedup], and — because a soak must also prove
    poison input is quarantined rather than fatal — [poison]
    deliberately malformed lines are interleaved at evenly spaced
    positions. The same plan streams over HTTP POST or writes to a
    file for the daemon's tail ingester; either way the receiver must
    quarantine exactly [poison] lines, which is the soak's dead-letter
    invariant. *)

type item = {
  at : float;  (** emit offset in seconds from the start of the replay *)
  line : string;  (** one JSONL event — or one poison line *)
  poison : bool;
}

val tenant_key : tenants:int -> int -> string
(** [tenant_key ~tenants task] — the stable key ["t<k>"] with
    [k = task mod tenants]. *)

val plan :
  ?speedup:float -> ?poison:int -> tenants:int -> Qnet_trace.Trace.t -> item list
(** [plan ~tenants trace] — the replay schedule, sorted by [at]
    (ties: original event order). [speedup] (default 1.0) divides the
    simulated timeline; [poison] (default 0) malformed lines are
    interleaved evenly. Raises [Invalid_argument] when [tenants < 1],
    [speedup <= 0] or [poison < 0]. *)
