(** Reference estimators the paper compares against.

    The baseline of §5.1 is the sample mean of the {e true} service
    times of the observed tasks — information StEM does not get to
    see (it only sees arrival times), which makes the comparison
    deliberately unfair to StEM. *)

val mean_observed_service :
  Qnet_trace.Trace.t -> observed_tasks:int list -> float array
(** [mean_observed_service trace ~observed_tasks] computes, per queue,
    the mean realized (ground-truth) service time over events that
    belong to observed tasks. Queues with no observed events report
    [nan]. Service times are reconstructed from the full trace under
    FIFO, exactly as the instrumented system would measure them. *)
