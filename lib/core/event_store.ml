module Trace = Qnet_trace.Trace
module Span = Qnet_obs.Span

type t = {
  num_queues : int;
  num_tasks : int;
  state : int array;
  queue : int array; (* mutable through move_event *)
  departure : float array;
  observed : bool array;
  pi : int array;
  pi_inv : int array;
  rho : int array; (* within-queue chains; mutable through move_event *)
  rho_inv : int array;
  heads : int array; (* first event (in arrival order) per queue, -1 if none *)
  task_start : int array;
      (* task k's events are task_start.(k) .. task_start.(k + 1) - 1 *)
  arrival_queue : int;
  task_ids : int array; (* dense task index -> original task id *)
  latent : int array;
      (* ascending unobserved indices; [observed] never changes after
         [of_trace], so this is computed once *)
  mutable order : int array;
      (* [shuffled_latent]'s buffer, one per copy, allocated on its first
         call: only the random scan reads it *)
}

(* Within-queue chains follow the true arrival order: the recorded
   arrivals, ties broken by departure, then index, so q0's simultaneous
   arrivals order by entry time. This order is the fixed "event counter"
   data. The comparator is a total order, so the chains are unique.
   [precedes events departure j i]: event [j] comes before event [i]. *)
let[@inline] precedes events (departure : float array) j i =
  match compare (Array.unsafe_get events j).Trace.arrival (Array.unsafe_get events i).Trace.arrival with
  | 0 -> (
      match compare departure.(j) departure.(i) with 0 -> j < i | c -> c < 0)
  | c -> c < 0

(* Backward steps an out-of-order queue may take per event it holds
   before its chain is relinked from a sort instead. *)
let moves_per_event = 16

(* The within-queue chains as the walk links them, and per queue its
   tail (its last event in arrival order), its event count, the steps
   its insertions took, and whether it is still linked in order. *)
type chains = {
  c_rho : int array;
  c_rho_inv : int array;
  c_heads : int array;
  tail : int array;
  count : int array;
  moves : int array;
  sorted : bool array;
}

(* Links event [i] into queue [q]'s chain: after the tail when it sorts
   after it, which at most queues it does; otherwise after the last
   event before it, found by stepping back from the tail within the
   queue's budget; past the budget, after the tail, with the queue left
   for [sort_chain]. *)
let link c events departure q i =
  let t = c.tail.(q) in
  c.count.(q) <- c.count.(q) + 1;
  if t < 0 then begin
    c.c_heads.(q) <- i;
    c.tail.(q) <- i
  end
  else if (not c.sorted.(q)) || precedes events departure t i then begin
    c.c_rho.(i) <- t;
    c.c_rho_inv.(t) <- i;
    c.tail.(q) <- i
  end
  else begin
    let budget = (moves_per_event * c.count.(q)) - c.moves.(q) in
    let j = ref c.c_rho.(t) and steps = ref 1 in
    while !j >= 0 && !steps <= budget && not (precedes events departure !j i) do
      j := c.c_rho.(!j);
      incr steps
    done;
    c.moves.(q) <- c.moves.(q) + !steps;
    if !steps > budget then begin
      c.sorted.(q) <- false;
      c.c_rho.(i) <- t;
      c.c_rho_inv.(t) <- i;
      c.tail.(q) <- i
    end
    else begin
      let j = !j in
      let s = if j < 0 then c.c_heads.(q) else c.c_rho_inv.(j) in
      c.c_rho.(i) <- j;
      c.c_rho_inv.(i) <- s;
      c.c_rho.(s) <- i;
      if j < 0 then c.c_heads.(q) <- i else c.c_rho_inv.(j) <- i
    end
  end

(* Relinks queue [q]'s chain, whatever order its [count] events are
   linked in, from a sort of its own events with their arrivals as flat
   keys. *)
let sort_chain events (departure : float array) chains q =
  let count = chains.count.(q) and rho = chains.c_rho and rho_inv = chains.c_rho_inv in
  let at = Array.make count 0 and key = Array.make count 0.0 in
  let i = ref chains.c_heads.(q) in
  for k = 0 to count - 1 do
    at.(k) <- !i;
    key.(k) <- events.(!i).Trace.arrival;
    i := rho_inv.(!i)
  done;
  let by_key x y =
    match compare key.(x) key.(y) with
    | 0 -> (
        match compare departure.(at.(x)) departure.(at.(y)) with
        | 0 -> compare at.(x) at.(y)
        | c -> c)
    | c -> c
  in
  let order = Array.init count Fun.id in
  Array.stable_sort by_key order;
  chains.c_heads.(q) <- at.(order.(0));
  rho.(at.(order.(0))) <- -1;
  rho_inv.(at.(order.(count - 1))) <- -1;
  for k = 1 to count - 1 do
    rho.(at.(order.(k))) <- at.(order.(k - 1));
    rho_inv.(at.(order.(k - 1))) <- at.(order.(k))
  done

(* The first error of the task checks; it is raised only once the walk
   has met no event out of order. *)
type task_check = Passed | No_initial | Inconsistent | Revisit

let of_trace ?observed trace =
  Span.with_span "event_store.of_trace" @@ fun () ->
  let events = trace.Trace.events in
  let n = Array.length events in
  if n = 0 then invalid_arg "Event_store.of_trace: empty trace";
  let observed =
    match observed with
    | None -> Array.make n true
    | Some o ->
        if Array.length o <> n then
          invalid_arg "Event_store.of_trace: observed mask length mismatch";
        Array.copy o
  in
  (* One walk of the (task, arrival)-sorted events fills every array
     and makes every check. Each task is a run, so the dense task index,
     the task ids and the within-task chains come from the run
     boundaries. A trace [Trace.create] made holds [num_tasks] runs. *)
  let num_queues = trace.Trace.num_queues in
  let runs = Int.max 1 trace.Trace.num_tasks in
  let task_start = Array.make (runs + 1) n and task_ids = Array.make runs 0 in
  let pi = Array.make n (-1) and pi_inv = Array.make n (-1) in
  let state = Array.make n 0 and queue = Array.make n 0 and departure = Array.make n 0.0 in
  let c =
    {
      c_rho = Array.make n (-1);
      c_rho_inv = Array.make n (-1);
      c_heads = Array.make num_queues (-1);
      tail = Array.make num_queues (-1);
      count = Array.make num_queues 0;
      moves = Array.make num_queues 0;
      sorted = Array.make num_queues true;
    }
  in
  let arrival_queue = events.(0).Trace.queue in
  let tasks = ref 0 and unobserved = ref 0 and bad = ref Passed and stray = ref (-1) in
  for i = 0 to n - 1 do
    let e = events.(i) in
    let q = e.Trace.queue in
    state.(i) <- e.Trace.state;
    queue.(i) <- q;
    departure.(i) <- e.Trace.departure;
    if not observed.(i) then incr unobserved;
    let first =
      i = 0
      ||
      let p = events.(i - 1) in
      if e.Trace.task < p.Trace.task
         || (e.Trace.task = p.Trace.task && e.Trace.arrival < p.Trace.arrival)
      then Task_runs.out_of_order ~caller:"Event_store.of_trace" i;
      p.Trace.task <> e.Trace.task
    in
    if first then begin
      if !tasks < runs then begin
        task_start.(!tasks) <- i;
        task_ids.(!tasks) <- e.Trace.task
      end;
      incr tasks;
      (* Initial events must be first per task and at a common queue. *)
      if !bad = Passed then
        if not (Float.equal e.Trace.arrival 0.0) then bad := No_initial
        else if q <> arrival_queue then bad := Inconsistent
    end
    else begin
      pi.(i) <- i - 1;
      pi_inv.(i - 1) <- i;
      (* Only initial events may sit at the arrival queue: routing back
         to q0 would break the paper's convention. *)
      if !bad = Passed && q = arrival_queue then bad := Revisit
    end;
    if q >= 0 && q < num_queues then link c events departure q i
    else if !stray < 0 then stray := i
  done;
  (match !bad with
  | Passed -> ()
  | No_initial -> invalid_arg "Event_store.of_trace: task without initial event"
  | Inconsistent -> invalid_arg "Event_store.of_trace: inconsistent arrival queue"
  | Revisit -> invalid_arg "Event_store.of_trace: a task revisits the arrival queue");
  (* what the array access at a queue out of range raised *)
  if !stray >= 0 then invalid_arg "index out of bounds";
  for q = 0 to num_queues - 1 do
    if not c.sorted.(q) then sort_chain events departure c q
  done;
  (* a record built by hand may give another task count: the runs are
     then found again *)
  let num_tasks = !tasks in
  let task_start, task_ids =
    if num_tasks = runs then (task_start, task_ids)
    else begin
      let task_start = Task_runs.starts ~caller:"Event_store.of_trace" trace in
      (task_start, Array.init num_tasks (fun k -> events.(task_start.(k)).Trace.task))
    end
  in
  let latent = Array.make !unobserved 0 and k = ref 0 in
  for i = 0 to n - 1 do
    if not observed.(i) then begin
      latent.(!k) <- i;
      incr k
    end
  done;
  {
    num_queues;
    num_tasks;
    state;
    queue;
    departure;
    observed;
    pi;
    pi_inv;
    rho = c.c_rho;
    rho_inv = c.c_rho_inv;
    heads = c.c_heads;
    task_start;
    arrival_queue;
    task_ids;
    latent;
    order = [||];
  }

let num_events t = Array.length t.departure
let num_queues t = t.num_queues
let num_tasks t = t.num_tasks
(* The task whose run of indices holds [i]: the last [k] with
   [task_start.(k) <= i]. *)
let task t i =
  if i < 0 || i >= num_events t then invalid_arg "index out of bounds";
  let lo = ref 0 and hi = ref t.num_tasks in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.task_start.(mid) <= i then lo := mid else hi := mid
  done;
  !lo

let state t i = t.state.(i)
let queue t i = t.queue.(i)
let departure t i = t.departure.(i)
let observed t i = t.observed.(i)
let pi t i = t.pi.(i)
let pi_inv t i = t.pi_inv.(i)
let rho t i = t.rho.(i)
let rho_inv t i = t.rho_inv.(i)

(* [Float.max] calls the C function [caml_signbit] whenever [y > x]
   fails, and the call spills every live float register. This gives the
   same bits on every pair without a NaN, signed zeros included, and a
   NaN when either argument is one. Under -opaque a helper of another
   unit is not inlined, so the kernel keeps its own copy. *)
let[@inline] fmax (x : float) y =
  if y > x then y
  else if x > y then x
  else if x = y && Float.abs x > 0.0 then x
  else (* two zeros, whose sum is their max, or a NaN *) x +. y

(* The time arithmetic on the arrays themselves, inlined so that the
   reductions below box no float per event. *)
let[@inline] arrival_in d pi i =
  let p = pi.(i) in
  if p < 0 then 0.0 else d.(p)

let[@inline] start_in d pi rho i =
  let a = arrival_in d pi i in
  let r = rho.(i) in
  if r < 0 then a else fmax a d.(r)

let arrival t i = arrival_in t.departure t.pi i
let start_service t i = start_in t.departure t.pi t.rho i
let service t i = t.departure.(i) -. start_in t.departure t.pi t.rho i
let waiting t i = start_in t.departure t.pi t.rho i -. arrival_in t.departure t.pi i

let set_departure t i d =
  if t.observed.(i) then invalid_arg "Event_store.set_departure: event is observed";
  if Float.is_nan d then invalid_arg "Event_store.set_departure: NaN";
  t.departure.(i) <- d

let events_of_task t k =
  let first = t.task_start.(k) in
  Array.init (t.task_start.(k + 1) - first) (fun j -> first + j)

let events_at_queue t q =
  (* walk the rho chain from the head: once to size, once to fill *)
  let rec length i k = if i < 0 then k else length t.rho_inv.(i) (k + 1) in
  let events = Array.make (length t.heads.(q) 0) 0 in
  let rec fill i k =
    if i >= 0 then begin
      events.(k) <- i;
      fill t.rho_inv.(i) (k + 1)
    end
  in
  fill t.heads.(q) 0;
  events

let unobserved_events t = Array.copy t.latent
let latent t = t.latent

let shuffled_latent t rng =
  let n = Array.length t.latent in
  if Array.length t.order <> n then t.order <- Array.make n 0;
  Array.blit t.latent 0 t.order 0 n;
  Qnet_prob.Rng.shuffle_in_place rng t.order;
  t.order

type view = {
  v_departure : float array;
  v_observed : bool array;
  v_queue : int array;
  v_pi : int array;
  v_pi_inv : int array;
  v_rho : int array;
  v_rho_inv : int array;
  v_heads : int array;
}

let view t =
  {
    v_departure = t.departure;
    v_observed = t.observed;
    v_queue = t.queue;
    v_pi = t.pi;
    v_pi_inv = t.pi_inv;
    v_rho = t.rho;
    v_rho_inv = t.rho_inv;
    v_heads = t.heads;
  }

let arrival_queue t = t.arrival_queue

let to_trace t =
  let events = ref [] in
  for k = t.num_tasks - 1 downto 0 do
    for i = t.task_start.(k + 1) - 1 downto t.task_start.(k) do
      events :=
        {
          Trace.task = t.task_ids.(k);
          state = t.state.(i);
          queue = t.queue.(i);
          arrival = arrival t i;
          departure = t.departure.(i);
        }
        :: !events
    done
  done;
  Trace.create ~num_queues:t.num_queues !events

let copy t =
  {
    t with
    departure = Array.copy t.departure;
    observed = Array.copy t.observed;
    queue = Array.copy t.queue;
    rho = Array.copy t.rho;
    rho_inv = Array.copy t.rho_inv;
    heads = Array.copy t.heads;
    order = [||];
  }

type snapshot = {
  s_departure : float array;
  s_queue : int array;
  s_rho : int array;
  s_rho_inv : int array;
  s_heads : int array;
}

let check_dimensions caller t s =
  let n = Array.length t.departure in
  if
    Array.length s.s_departure <> n
    || Array.length s.s_queue <> n
    || Array.length s.s_rho <> n
    || Array.length s.s_rho_inv <> n
    || Array.length s.s_heads <> t.num_queues
  then invalid_arg (caller ^ ": snapshot dimension mismatch")

let snapshot ?into t =
  match into with
  | None ->
      {
        s_departure = Array.copy t.departure;
        s_queue = Array.copy t.queue;
        s_rho = Array.copy t.rho;
        s_rho_inv = Array.copy t.rho_inv;
        s_heads = Array.copy t.heads;
      }
  | Some s ->
      check_dimensions "Event_store.snapshot" t s;
      let n = Array.length t.departure in
      Array.blit t.departure 0 s.s_departure 0 n;
      Array.blit t.queue 0 s.s_queue 0 n;
      Array.blit t.rho 0 s.s_rho 0 n;
      Array.blit t.rho_inv 0 s.s_rho_inv 0 n;
      Array.blit t.heads 0 s.s_heads 0 t.num_queues;
      s

let restore t s =
  check_dimensions "Event_store.restore" t s;
  let n = Array.length t.departure in
  Array.blit s.s_departure 0 t.departure 0 n;
  Array.blit s.s_queue 0 t.queue 0 n;
  Array.blit s.s_rho 0 t.rho 0 n;
  Array.blit s.s_rho_inv 0 t.rho_inv 0 n;
  Array.blit s.s_heads 0 t.heads 0 t.num_queues

(* Re-home event [i] to [queue], unlinking it from its current rho
   chain and inserting it into the target chain at the position given
   by its (current) arrival time. The caller is responsible for
   checking that the resulting service times are non-negative (the
   Metropolis–Hastings path move rejects otherwise); this function
   only maintains the chain structure. *)
let move_event t i ~queue:q' =
  if q' < 0 || q' >= t.num_queues then invalid_arg "Event_store.move_event: bad queue";
  if q' = t.arrival_queue then
    invalid_arg "Event_store.move_event: cannot move events to the arrival queue";
  if t.queue.(i) = t.arrival_queue then
    invalid_arg "Event_store.move_event: cannot move initial events";
  let q = t.queue.(i) in
  if q <> q' then begin
    (* unlink from q *)
    let p = t.rho.(i) and s = t.rho_inv.(i) in
    if p >= 0 then t.rho_inv.(p) <- s else t.heads.(q) <- s;
    if s >= 0 then t.rho.(s) <- p;
    (* find the insertion point in q': the last event whose arrival is
       <= ours (ties resolved toward inserting after, which keeps the
       walk deterministic) *)
    let a = arrival t i in
    let rec find prev cur =
      if cur < 0 then prev
      else if arrival t cur <= a then find cur t.rho_inv.(cur)
      else prev
    in
    let pred = find (-1) t.heads.(q') in
    let succ = if pred < 0 then t.heads.(q') else t.rho_inv.(pred) in
    t.rho.(i) <- pred;
    t.rho_inv.(i) <- succ;
    if pred >= 0 then t.rho_inv.(pred) <- i else t.heads.(q') <- i;
    if succ >= 0 then t.rho.(succ) <- i;
    t.queue.(i) <- q'
  end

let validate t =
  let tol = 1e-9 in
  let d = t.departure and pi = t.pi and rho = t.rho in
  let err = ref None in
  let fail msg = if !err = None then err := Some msg in
  for i = 0 to num_events t - 1 do
    if d.(i) -. start_in d pi rho i < -.tol then
      fail
        (Printf.sprintf "event %d: negative service %.12g" i (service t i));
    if d.(i) < -.tol then
      fail (Printf.sprintf "event %d: negative departure" i)
  done;
  for q = 0 to t.num_queues - 1 do
    let rec walk prev cur =
      if cur >= 0 then begin
        if t.queue.(cur) <> q then
          fail (Printf.sprintf "event %d linked into queue %d but assigned to %d" cur q t.queue.(cur));
        if prev >= 0 && arrival_in d pi cur < arrival_in d pi prev -. tol then
          fail (Printf.sprintf "queue order violated between events %d and %d" prev cur);
        walk cur t.rho_inv.(cur)
      end
    in
    walk (-1) t.heads.(q)
  done;
  match !err with None -> Ok () | Some m -> Error m

let log_likelihood t params =
  if Params.num_queues params <> t.num_queues then
    invalid_arg "Event_store.log_likelihood: params dimension mismatch";
  let rates = params.Params.rates and d = t.departure and pi = t.pi and rho = t.rho in
  let log_rates = Array.map log rates in
  let acc = ref 0.0 in
  for i = 0 to num_events t - 1 do
    let q = t.queue.(i) in
    let mu = rates.(q) in
    let s = d.(i) -. start_in d pi rho i in
    if s < 0.0 then acc := neg_infinity
    else acc := !acc +. log_rates.(q) -. (mu *. s)
  done;
  !acc

(* Per queue: the event count and the sum of each event's service
   (or, with [~waiting:true], its waiting time), in index order. *)
let sums_by_queue t ~waiting =
  let counts = Array.make t.num_queues 0 in
  let sums = Array.make t.num_queues 0.0 in
  let d = t.departure and pi = t.pi and rho = t.rho in
  for i = 0 to num_events t - 1 do
    let q = t.queue.(i) in
    let start = start_in d pi rho i in
    counts.(q) <- counts.(q) + 1;
    sums.(q) <- sums.(q) +. (if waiting then start -. arrival_in d pi i else d.(i) -. start)
  done;
  (counts, sums)

let service_sufficient_stats t =
  let counts, sums = sums_by_queue t ~waiting:false in
  Array.init t.num_queues (fun q -> (counts.(q), sums.(q)))

let means (counts, sums) =
  Array.mapi (fun q c -> if c = 0 then 0.0 else sums.(q) /. float_of_int c) counts

let mean_waiting_by_queue t = means (sums_by_queue t ~waiting:true)
let mean_service_by_queue t = means (sums_by_queue t ~waiting:false)

(* [log_likelihood] and [mean_service_by_queue] in one pass, with the
   same operations in the same order, so the same bits. *)
let log_likelihood_and_mean_service t params =
  if Params.num_queues params <> t.num_queues then
    invalid_arg "Event_store.log_likelihood_and_mean_service: params dimension mismatch";
  let rates = params.Params.rates and d = t.departure and pi = t.pi and rho = t.rho in
  let log_rates = Array.map log rates in
  let counts = Array.make t.num_queues 0 and sums = Array.make t.num_queues 0.0 in
  let acc = ref 0.0 in
  for i = 0 to num_events t - 1 do
    let q = t.queue.(i) in
    let s = d.(i) -. start_in d pi rho i in
    counts.(q) <- counts.(q) + 1;
    sums.(q) <- sums.(q) +. s;
    if s < 0.0 then acc := neg_infinity
    else acc := !acc +. log_rates.(q) -. (rates.(q) *. s)
  done;
  (!acc, means (counts, sums))
