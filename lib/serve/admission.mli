(** Adaptive sampled admission: per-tenant Bernoulli retention with an
    AIMD controller.

    Under sustained overload the daemon stops rejecting whole batches
    and instead thins each tenant's stream by a Bernoulli coin — the
    estimator is unbiased under such sampling (the arXiv:1001.3355
    deployment story), so a fair 1% sample beats a 429 storm. Pressure
    observations (shard queue fraction, refit lag) drive the rate with
    additive-increase / multiplicative-decrease and per-tenant
    adjustment throttling; the effective retained fraction is reported
    back on posterior summaries via {!snapshot}. *)

type config = {
  min_rate : float;  (** floor for the admission rate (default 0.01 —
                         the paper's ~1% sampling regime) *)
  increase : float;  (** additive step on low pressure *)
  decrease : float;  (** multiplicative factor on high pressure *)
  high_watermark : float;  (** pressure at or above this backs off *)
  low_watermark : float;  (** pressure at or below this recovers *)
  adjust_interval : float;
      (** minimum seconds between rate adjustments per tenant *)
  seed : int;  (** seed for the admission coin stream *)
}

val default_config : config

val validate : config -> (unit, string) result
(** Reject nonsense controllers: [min_rate] outside (0, 1], a
    non-positive [increase], a [decrease] outside (0, 1), inverted or
    out-of-range watermarks, a negative [adjust_interval]. *)

type t

val create : config -> t

val observe : t -> tenant:string -> pressure:float -> now:float -> unit
(** Feed one pressure observation in [0, 1] for [tenant]; at most one
    AIMD adjustment per [adjust_interval] is applied. An observation
    that changes no rate does not start the interval. *)

val admit : t -> tenant:string -> bool
(** Bernoulli coin at the tenant's current rate. At rate 1.0 this
    short-circuits to [true] without advancing the RNG, so
    fully-admitted streams stay deterministic. *)

val note : t -> tenant:string -> offered:int -> admitted:int -> unit
(** Commit the outcome of an {e accepted} batch to the per-tenant and
    global counters. Batches rejected wholesale (429) must not be
    noted — batch atomicity means they had no side effects. *)

val rate : t -> tenant:string -> float
(** Current rate for [tenant] (1.0 if never seen). *)

type snapshot = { rate : float; s_offered : int; s_admitted : int }

val snapshot : t -> tenant:string -> snapshot

val admitted_fraction : snapshot -> float
(** Effective retained fraction [admitted/offered] (1.0 before any
    traffic) — the number a posterior consumer needs to undo the
    thinning of arrival-rate estimates. *)
