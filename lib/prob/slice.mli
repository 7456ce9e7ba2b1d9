(** One-dimensional slice sampling (Neal 2003) on a bounded interval.

    The exact piecewise-exponential conditional only exists for
    exponential service; with general service distributions the Gibbs
    conditional over a departure time is an arbitrary density on a
    window, and slice sampling draws from it without tuning: sample a
    vertical level under the density at the current point, then sample
    uniformly from the horizontal slice, shrinking on rejections. Each
    call is one exact MCMC transition that leaves the target invariant
    (it is not an independent draw — callers iterate, as Gibbs sweeps
    naturally do). *)

val step :
  Rng.t ->
  log_density:(float -> float) ->
  lower:float ->
  upper:float ->
  current:float ->
  float
(** [step rng ~log_density ~lower ~upper ~current] performs one slice
    transition targeting [exp log_density] restricted to
    [\[lower, upper\]]. [current] must lie in the interval and have
    finite log-density; raises [Invalid_argument] otherwise.
    After 100 shrinks (a pathological target) the current point is
    returned — a valid, if lazy, MCMC move. *)

val step_stats :
  Rng.t ->
  log_density:(float -> float) ->
  lower:float ->
  upper:float ->
  current:float ->
  float * int
(** Exactly {!step}, additionally returning the number of shrink
    rejections the transition needed (0 = the first horizontal draw
    was accepted; 100 = the loop was exhausted and the
    current point returned). Consumes the same RNG stream as {!step}
    for the same draw, so instrumented and uninstrumented runs stay
    bit-identical. The shrink count is the sampler-efficiency signal
    the convergence diagnostics track: a rising shrink rate means the
    conditional has become sharply peaked relative to its window. *)
