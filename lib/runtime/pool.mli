(** The process-wide pool of worker domains that runs supervised chain
    rounds.

    The pool holds {!size} worker domains, one per
    [Domain.recommended_domain_count ()], and runs jobs from one FIFO
    queue. The first {!submit} starts it; a process that never submits
    a job never starts a domain. The workers then live as long as the
    process, so a long-lived caller such as [qnet_serve] starts
    {!size} domains in its life instead of one per chain per round.

    {b Waiting.} Jobs are submitted through a {!waiter}. Each job that
    finishes wakes the waiter's {!wait} at once; otherwise {!wait}
    returns after its timeout, so the caller can watch the jobs'
    progress while it waits. A job that is still queued has not
    started: the caller's watch must not hold it to a deadline.

    {b Abandonment.} A worker domain cannot be preempted. {!abandon}
    gives up on a running job that does not return: the pool starts a
    replacement worker at once, and the worker still running the job
    exits when the job returns, so the pool goes back to {!size}
    workers. A job that never returns keeps its domain for good.

    {b No nesting.} A job must not wait on other jobs: on a pool of
    two, a job that waits for two jobs queued behind it waits forever.
    {!in_worker} lets a caller refuse to wait from inside a job.

    The pool exports [qnet_pool_workers] (live worker domains, a
    running abandoned one included) and
    [qnet_pool_domains_started_total] (every worker it has started,
    replacements included) on {!Qnet_obs.Metrics.default}. *)

val size : int
(** [Domain.recommended_domain_count ()]: the number of workers. *)

type waiter
(** A caller's view of the jobs it submitted: their completions wake
    {!wait}. *)

type job

val waiter : unit -> waiter
(** A fresh waiter, which holds one pipe until {!release} and every job
    submitted through it let go of it. *)

val submit : waiter -> (unit -> unit) -> job
(** [submit w f] queues [f] and returns at once; the pool is started
    first if this is its first job. [f] runs on a worker domain. It
    should not raise: the worker logs what it raises, and the job
    counts as finished. *)

val finished : job -> bool
(** The job has returned (and was not abandoned first). *)

val wait : waiter -> timeout:float -> unit
(** [wait w ~timeout] returns once a job submitted through [w] has
    finished since the last [wait], or after [timeout] seconds,
    whichever comes first. *)

val abandon : job -> unit
(** Give up on a running job: start a replacement worker now, and let
    the job's worker exit when the job returns. A job that is queued or
    has already finished is left alone. *)

val release : waiter -> unit
(** The caller waits no more. The waiter's pipe is closed once every
    job submitted through it has returned, so a job that outlives its
    caller never writes to a closed descriptor. *)

val in_worker : unit -> bool
(** The calling domain is one of the pool's workers. *)

val register_metrics : unit -> unit
(** Register the pool's two metric families, so that a scrape shows
    them at 0 before the first job. *)
