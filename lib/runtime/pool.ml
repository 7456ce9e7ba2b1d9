module Metrics = Qnet_obs.Metrics

let log_src = Logs.Src.create "qnet.pool" ~doc:"Worker domains for supervised chains"

module Log = (val Logs.src_log log_src : Logs.LOG)

let size = Domain.recommended_domain_count ()

let workers_gauge () =
  Metrics.Gauge.create
    ~help:"Live worker domains in the chain pool, a running abandoned one included"
    "qnet_pool_workers"

let started_counter () =
  Metrics.Counter.create ~help:"Worker domains the chain pool has started"
    "qnet_pool_domains_started_total"

let register_metrics () =
  ignore (workers_gauge () : Metrics.Gauge.t);
  ignore (started_counter () : Metrics.Counter.t)

(* A self-pipe: each finished job writes one byte, and [wait] selects on
   the read end. The caller and every job not yet returned hold one
   reference each; whoever drops the last closes both ends, so no job
   writes to a descriptor that was closed (and perhaps reused). *)
type waiter = {
  rd : Unix.file_descr;
  wr : Unix.file_descr;
  refs : int Atomic.t;
  drain : Bytes.t;  (* read by the caller's domain only *)
}

type state = Queued | Running | Finished | Abandoned
type job = { work : unit -> unit; owner : waiter; state : state Atomic.t }

type t = {
  lock : Mutex.t;
  nonempty : Condition.t;
  queue : job Queue.t;
  mutable workers : int;  (* guarded by lock *)
  workers_g : Metrics.Gauge.t;
  started : Metrics.Counter.t;
}

let worker_key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get worker_key

let waiter () =
  let rd, wr = Unix.pipe ~cloexec:true () in
  { rd; wr; refs = Atomic.make 1; drain = Bytes.create 64 }

let unref w =
  if Atomic.fetch_and_add w.refs (-1) = 1 then begin
    Unix.close w.rd;
    Unix.close w.wr
  end

let release = unref

let set_workers p n =
  p.workers <- n;
  Metrics.Gauge.set p.workers_g (float_of_int n)

(* A worker takes jobs until it returns from one that was abandoned
   while it ran: a replacement has taken its place by then. *)
let rec work p =
  let job =
    Mutex.protect p.lock (fun () ->
        while Queue.is_empty p.queue do
          Condition.wait p.nonempty p.lock
        done;
        Queue.pop p.queue)
  in
  Atomic.set job.state Running;
  (try job.work ()
   with exn -> Log.err (fun m -> m "pool job raised %s" (Printexc.to_string exn)));
  let kept = Atomic.compare_and_set job.state Running Finished in
  ignore (Unix.write_substring job.owner.wr "\000" 0 1 : int);
  unref job.owner;
  if kept then work p
  else Mutex.protect p.lock (fun () -> set_workers p (p.workers - 1))

let spawn_worker p =
  Metrics.Counter.inc p.started;
  ignore
    (Domain.spawn (fun () ->
         Domain.DLS.set worker_key true;
         work p)
      : unit Domain.t)

let instance : t option Atomic.t = Atomic.make None
let instance_lock = Mutex.create ()

let get () =
  match Atomic.get instance with
  | Some p -> p
  | None ->
      Mutex.protect instance_lock (fun () ->
          match Atomic.get instance with
          | Some p -> p
          | None ->
              let p =
                {
                  lock = Mutex.create ();
                  nonempty = Condition.create ();
                  queue = Queue.create ();
                  workers = size;
                  workers_g = workers_gauge ();
                  started = started_counter ();
                }
              in
              Metrics.Gauge.set p.workers_g (float_of_int size);
              for _ = 1 to size do
                spawn_worker p
              done;
              Atomic.set instance (Some p);  (* qnet-lint: racy-ok C005 set once, under instance_lock, after the re-check *)
              p)

let submit w f =
  let p = get () in
  let job = { work = f; owner = w; state = Atomic.make Queued } in
  Atomic.incr w.refs;
  Mutex.protect p.lock (fun () ->
      Queue.push job p.queue;
      Condition.signal p.nonempty);
  job

let finished job = Atomic.get job.state = Finished

let wait w ~timeout =
  match Unix.select [ w.rd ] [] [] timeout with
  | [], _, _ -> ()
  | _ -> ignore (Unix.read w.rd w.drain 0 (Bytes.length w.drain) : int)
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let abandon job =
  if Atomic.compare_and_set job.state Running Abandoned then begin
    let p = get () in
    Mutex.protect p.lock (fun () -> set_workers p (p.workers + 1));
    spawn_worker p
  end
