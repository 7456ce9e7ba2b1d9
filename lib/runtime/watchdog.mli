(** Heartbeat monitoring for inference chains running on OCaml 5
    domains.

    Each chain owns a {!Heartbeat.t} and beats it once per Gibbs sweep
    (and once per warmup sweep); the supervisor's watchdog polls all
    heartbeats against a per-sweep deadline from the caller's domain. A
    chain whose last beat is older than the deadline is {e stalled}:
    the watchdog cannot preempt an OCaml domain, so the verdict's job
    is to trigger the supervisor's cooperative cancellation, which a
    chain honours at its next iteration boundary; at the round barrier
    the supervisor rolls the chain back to its last good checkpoint
    and restarts it with re-jittered latents, exhausting the restart
    budget into a [Dead] verdict. A chain stuck {e inside} a single
    Gibbs move never reaches the cancellation point — the supervisor
    abandons it after a grace period, the pool replaces the worker it
    holds, and the run degrades to the surviving chains. (Divergence {e quarantine} is a separate
    mechanism, driven by cross-chain statistics in the supervisor, not
    by this watchdog.)

    Heartbeats are single-writer (the chain) / single-reader (the
    supervisor) atomics; beating and polling are lock-free, never
    raise, and consume no randomness. The watchdog additionally keeps
    a deadline-miss count ({!misses}) and exposes per-heartbeat ages
    ({!Heartbeat.age}) so the telemetry layer can export supervision
    health as metrics. *)

module Heartbeat : sig
  type t

  val create : unit -> t

  val arm : t -> now:float -> unit
  (** Start (or restart) the deadline clock — called by the chain's
      round job when a pool worker starts it, so a chain that never
      manages a single beat still times out, and a chain still queued
      (its heartbeat done since its last round) is not judged. Also
      clears the done flag. *)

  val beat : t -> now:float -> sweep:int -> unit
  (** Record liveness at sweep [sweep]. *)

  val mark_done : t -> unit
  (** The chain finished its round (normally or by catching its own
      crash); the watchdog stops judging it. *)

  val is_done : t -> bool

  val last : t -> float * int
  (** Time and sweep index of the most recent beat (arm time and the
      armed sweep if the chain has not beaten since {!arm}). *)

  val beats : t -> int
  (** Total beats over the heartbeat's lifetime (survives {!arm}). *)

  val age : t -> now:float -> float
  (** Seconds since the last beat (or since {!arm} if the chain has
      not beaten yet), clamped to be non-negative. *)
end

type verdict =
  | Done  (** round finished; not subject to the deadline *)
  | Alive of float  (** seconds since the last beat, within deadline *)
  | Stalled of float  (** seconds since the last beat, beyond deadline *)

val pp_verdict : Format.formatter -> verdict -> unit

type t

val create : deadline:float -> Heartbeat.t array -> t
(** [create ~deadline hbs] watches [hbs] with a per-sweep deadline of
    [deadline] seconds. Raises [Invalid_argument] unless [deadline] is
    finite and positive. *)

val deadline : t -> float

val poll : now:float -> t -> verdict array
(** Judge every heartbeat at time [now]: done chains are [Done], the
    rest [Alive age] or [Stalled age] by comparing the age of their
    last beat against the deadline. Every [Stalled] verdict also
    increments the deadline-miss count. *)

val misses : t -> int
(** Cumulative count of [Stalled] verdicts returned by {!poll} over
    this watchdog's lifetime — the metrics hooks export it as the
    deadline-miss counter. ({!stalled} is a read-only probe and does
    not count.) *)

val stalled : now:float -> t -> int list
(** Indices of chains currently [Stalled], ascending. *)
