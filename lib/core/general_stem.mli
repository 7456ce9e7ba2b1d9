(** Stochastic EM with general service families — the full version of
    the generalization the paper leaves as future work.

    Per queue, the user chooses a parametric family; the E-step is a
    {!General_gibbs} sweep and the M-step fits the family to the
    imputed service samples ({!Qnet_prob.Fitting}). With every family
    set to [Exponential] this reduces to {!Stem} (up to the sampling
    method of the E-step). *)

type family =
  | Exponential
  | Erlang of int  (** fixed integer shape *)
  | Gamma  (** full shape+rate MLE *)
  | Lognormal

val family_name : family -> string

type config = {
  iterations : int;  (** default 200 *)
  burn_in : int;  (** default 100 *)
  warmup_sweeps : int;  (** default 10 *)
  min_queue_events : int;
      (** queues with fewer imputed samples keep their previous fit *)
}

val default_config : config

type result = {
  model : Service_model.t;
      (** fitted services, averaged over post-burn-in iterations in
          mean-service space and refit at the last iterate's shape *)
  model_last : Service_model.t;
  mean_service : float array;  (** post-burn-in average of each fit's mean *)
  history_mean_service : float array array;  (** [iteration][queue] *)
}

val run :
  ?config:config ->
  ?init:Service_model.t ->
  families:family array ->
  Qnet_prob.Rng.t ->
  Event_store.t ->
  result
(** [run ~families rng store]: [families.(q)] selects each queue's
    service family ([families] must have one entry per queue). [init]
    overrides the default starting model (exponential at the
    {!Stem.initial_guess} rates, reshaped into each family at equal
    mean). *)

val select_families :
  ?candidates:family list ->
  ?pilot_iterations:int ->
  Qnet_prob.Rng.t ->
  Event_store.t ->
  family array
(** [select_families rng store] chooses a service family per queue by
    AIC: a pilot exponential StEM imputes the latent times, then each
    queue's imputed service sample is fit with every candidate
    (default: exponential, gamma, lognormal) and the lowest-AIC family
    wins. Queues with too few samples default to [Exponential]. The
    store is left at the pilot's final state, so a subsequent
    {!run} continues from it. *)
