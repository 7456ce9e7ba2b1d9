(** A bounded multi-producer multi-consumer queue — the admission
    boundary between ingestion and a shard's inference loop.

    The bound is the whole point: an unbounded queue converts overload
    into unbounded memory growth and an eventual OOM kill, the exact
    failure mode a crash-tolerant daemon exists to avoid. When the
    queue is full the producer must choose a policy explicitly:

    - {e shed} ({!try_push}): drop the item and tell the caller, who
      surfaces the drop (HTTP 429, a metric) instead of hiding it;
    - {e block} ({!push_wait}): wait for space up to a timeout — the
      right policy for a file tailer that can afford to fall behind
      but must not lose lines.

    Synchronisation is one mutex around a [Queue.t]; waiting sides
    poll on a small sleep rather than a condition variable because the
    stdlib's [Condition] has no timed wait and every waiter here needs
    a deadline (a blocked producer must notice a closed queue, a
    consumer must keep beating its heartbeat). At the daemon's
    throughput target (thousands of events per second, drained in
    batches) the poll costs nothing measurable. *)

type 'a t

type policy = Shed | Block

val policy_of_string : string -> (policy, string) result

val create : capacity:int -> 'a t
(** Raises [Invalid_argument] when [capacity < 1]. *)

val capacity : 'a t -> int
val length : 'a t -> int

val try_push : 'a t -> 'a -> bool
(** [false] when the queue is full or closed — the shed policy. *)

val push_wait : timeout:float -> 'a t -> 'a -> bool
(** Block until space frees, the queue closes, or [timeout] seconds
    elapse; [false] iff the item was not enqueued. *)

val pop_batch : ?max:int -> timeout:float -> 'a t -> 'a list
(** Up to [max] (default 256) items in FIFO order. Waits up to
    [timeout] seconds for the first item; once the queue is non-empty
    returns immediately with what is there. [[]] on timeout or when
    the queue is closed and drained. *)

val close : 'a t -> unit
(** Producers start failing immediately; consumers drain the
    remainder. Idempotent. *)

val is_closed : 'a t -> bool
