module Store = Event_store
module Span = Qnet_obs.Span

type strategy = Earliest | Latest | Centered | Targeted

(* The strict-order separation enforced between chained times. *)
let slack = 1e-9

(* One constraint for each dependency edge (below) that is not between
   two observed departures, one lower bound x_i >= slack for each
   latent event that enters the network, and an equality, counted as
   its two bounds, for each observed departure. Constraints between
   two observed (hence fixed) departures hold in any mask derived from
   a valid trace, so the passes skip them too. *)
let constraint_count store =
  let v = Store.view store in
  let fixed = v.Store.v_observed and pi = v.Store.v_pi in
  let count = ref 0 in
  let order i j = if not (fixed.(i) && fixed.(j)) then incr count in
  for i = 0 to Array.length fixed - 1 do
    if fixed.(i) then count := !count + 2;
    let p = pi.(i) in
    if p >= 0 then order p i else if not fixed.(i) then incr count;
    let r = v.Store.v_rho.(i) in
    if r >= 0 then order r i;
    let j = v.Store.v_rho_inv.(i) in
    if j >= 0 && p >= 0 && pi.(j) >= 0 then order p pi.(j)
  done;
  !count

(* The dependency edges u -> w, each "w departs at least [slack] after
   u": service non-negativity (pi(w) -> w and rho(w) -> w) and the
   arrival order at each queue (pi(i) -> pi(j) for consecutive arrivals
   i and j = rho_inv(i)). The store's pointers give every event's at
   most three predecessors and three successors, so the graph is never
   built. Every edge points forward in time, so the graph of a store
   built from a FIFO trace is acyclic. *)

(* The arrival-order predecessor of w, or -1: with j = pi_inv(w), the
   task queued just before j at j's queue came from pi(rho(j)). *)
let order_pred (v : Store.view) w =
  let j = v.Store.v_pi_inv.(w) in
  if j < 0 then -1
  else
    let i = v.Store.v_rho.(j) in
    if i < 0 then -1 else v.Store.v_pi.(i)

(* The arrival-order successor of u, or -1: with i = pi_inv(u), the
   task queued just after i came from pi(rho_inv(i)). *)
let order_succ (v : Store.view) u =
  let i = v.Store.v_pi_inv.(u) in
  if i < 0 then -1
  else
    let j = v.Store.v_rho_inv.(i) in
    if j < 0 then -1 else v.Store.v_pi.(j)

(* Kahn's leftovers each have a predecessor that is left over too
   ([pending] counts them), so stepping back through one for as many
   steps as there are leftovers ends on a cycle. *)
let cycle_error (v : Store.view) pending ~left =
  let left_over u = u >= 0 && Bytes.get pending u <> '\000' in
  let back w =
    if left_over v.Store.v_pi.(w) then v.Store.v_pi.(w)
    else if left_over v.Store.v_rho.(w) then v.Store.v_rho.(w)
    else order_pred v w
  in
  let w = ref 0 in
  while not (left_over !w) do
    incr w
  done;
  for _ = 1 to left do
    w := back !w
  done;
  Error
    (Printf.sprintf "event %d at queue %d is on a dependency cycle: the trace breaks FIFO order"
       !w v.Store.v_queue.(!w))

(* Kahn's order of the events, in an int array that serves as its own
   queue. [pending.[w]] counts w's predecessors not yet placed; there
   are at most three, so a byte holds the count. *)
let topological_order (v : Store.view) =
  let m = Array.length v.Store.v_departure in
  let pi = v.Store.v_pi and rho = v.Store.v_rho in
  let pending = Bytes.make m '\000' in
  let order = Array.make m 0 in
  let tail = ref 0 in
  let place w =
    order.(!tail) <- w;
    incr tail
  in
  for w = 0 to m - 1 do
    let n =
      Bool.to_int (pi.(w) >= 0) + Bool.to_int (rho.(w) >= 0) + Bool.to_int (order_pred v w >= 0)
    in
    if n = 0 then place w else Bytes.set pending w (Char.chr n)
  done;
  let release w =
    if w >= 0 then begin
      let n = Char.code (Bytes.get pending w) - 1 in
      Bytes.set pending w (Char.chr n);
      if n = 0 then place w
    end
  in
  let head = ref 0 in
  while !head < !tail do
    let u = order.(!head) in
    incr head;
    release v.Store.v_pi_inv.(u);
    release v.Store.v_rho_inv.(u);
    release (order_succ v u)
  done;
  if !tail = m then Ok order else cycle_error v pending ~left:(m - !tail)

let no_room (v : Store.view) i ~lower ~upper =
  Error
    (Printf.sprintf
       "no feasible start: event %d at queue %d must depart at or after %.17g and by %.17g" i
       v.Store.v_queue.(i) lower upper)

(* The componentwise-latest solution, in reverse Kahn order: an observed
   departure, or else the cap, lowered to [slack] before each
   successor's latest. The cap comes from observed data only, so that
   latent values do not leak. *)
let latest_pass (v : Store.view) order =
  let m = Array.length order in
  let observed = v.Store.v_observed and departure = v.Store.v_departure in
  let max_obs = ref 0.0 in
  for i = 0 to m - 1 do
    if observed.(i) then max_obs := Float.max !max_obs departure.(i)
  done;
  let cap = (1.5 *. !max_obs) +. 10.0 in
  let latest = Array.make m 0.0 in
  for k = m - 1 downto 0 do
    let i = order.(k) in
    if observed.(i) then latest.(i) <- departure.(i)
    else begin
      let x = ref cap in
      let w = v.Store.v_pi_inv.(i) in
      if w >= 0 then x := Float.min !x (latest.(w) -. slack);
      let w = v.Store.v_rho_inv.(i) in
      if w >= 0 then x := Float.min !x (latest.(w) -. slack);
      let w = order_succ v i in
      if w >= 0 then x := Float.min !x (latest.(w) -. slack);
      latest.(i) <- !x
    end
  done;
  latest

(* The componentwise-earliest solution, in Kahn's order: an observed
   departure, or else [slack] after each predecessor's earliest, and at
   least [slack] for an event that enters the network. The system is
   infeasible exactly when some latent earliest passes its latest. *)
let earliest_pass (v : Store.view) order latest =
  let m = Array.length order in
  let observed = v.Store.v_observed and departure = v.Store.v_departure in
  let earliest = Array.make m 0.0 in
  let failed = ref (-1) and k = ref 0 in
  while !failed < 0 && !k < m do
    let i = order.(!k) in
    incr k;
    if observed.(i) then earliest.(i) <- departure.(i)
    else begin
      let p = v.Store.v_pi.(i) in
      let x = ref (if p < 0 then slack else earliest.(p) +. slack) in
      let u = v.Store.v_rho.(i) in
      if u >= 0 then x := Float.max !x (earliest.(u) +. slack);
      let u = order_pred v i in
      if u >= 0 then x := Float.max !x (earliest.(u) +. slack);
      earliest.(i) <- !x;
      if !x > latest.(i) then failed := i
    end
  done;
  if !failed < 0 then Ok earliest
  else no_room v !failed ~lower:earliest.(!failed) ~upper:latest.(!failed)

(* Greedy LP surrogate, in Kahn's order and in place of [latest]: each
   latent event departs at (service start + target mean service),
   clamped into [slack after every predecessor, latest]. Clamping by
   the componentwise-latest solution keeps every later constraint
   satisfiable; the order keeps every earlier one satisfied. A latent
   event whose lower end passes its latest has no room. *)
let targeted_walk (v : Store.view) order (target : Params.t) latest =
  let m = Array.length order in
  let observed = v.Store.v_observed and pi = v.Store.v_pi and rho = v.Store.v_rho in
  let failed = ref (-1) and failed_lower = ref 0.0 and k = ref 0 in
  while !failed < 0 && !k < m do
    let i = order.(!k) in
    incr k;
    if not observed.(i) then begin
      let p = pi.(i) and r = rho.(i) in
      let arrival = if p < 0 then 0.0 else latest.(p) in
      let start = if r < 0 then arrival else Float.max arrival latest.(r) in
      let lower = Float.max slack (start +. slack) in
      let u = order_pred v i in
      let lower = if u < 0 then lower else Float.max lower (latest.(u) +. slack) in
      if lower > latest.(i) then begin
        failed := i;
        failed_lower := lower
      end
      else begin
        let wanted = start +. (1.0 /. target.Params.rates.(v.Store.v_queue.(i))) in
        latest.(i) <- Float.min latest.(i) (Float.max lower wanted)
      end
    end
  done;
  if !failed < 0 then Ok latest
  else no_room v !failed ~lower:!failed_lower ~upper:latest.(!failed)

(* Exchanges the solution's latent entries with the store's departures
   through the view, so no value is boxed, and a second call undoes the
   first. A NaN goes through [Store.set_departure], which rejects it. *)
let exchange store solution =
  let v = Store.view store in
  let departure = v.Store.v_departure in
  for i = 0 to Array.length solution - 1 do
    if not v.Store.v_observed.(i) then begin
      let x = solution.(i) in
      if Float.is_nan x then Store.set_departure store i x
      else begin
        solution.(i) <- departure.(i);
        departure.(i) <- x
      end
    end
  done

let feasible ?strategy ?target store =
  Span.with_span "init.feasible" @@ fun () ->
  let strategy =
    match (strategy, target) with
    | Some Targeted, None -> invalid_arg "Init.feasible: Targeted strategy requires ~target"
    | Some s, _ -> s
    | None, Some _ -> Targeted
    | None, None -> Centered
  in
  let v = Store.view store in
  let solved =
    Result.bind (topological_order v) @@ fun order ->
    let latest = latest_pass v order in
    match (strategy, target) with
    | Targeted, Some params -> targeted_walk v order params latest
    | Earliest, _ -> earliest_pass v order latest
    | Latest, _ -> Result.map (fun _ -> latest) (earliest_pass v order latest)
    | Centered, _ | Targeted, None ->
        Result.map
          (fun earliest ->
            for i = 0 to Array.length earliest - 1 do
              earliest.(i) <- 0.5 *. (earliest.(i) +. latest.(i))
            done;
            earliest)
          (earliest_pass v order latest)
  in
  match solved with
  | Error _ as e -> e
  | Ok solution -> (
      exchange store solution;
      match Store.validate store with
      | Ok () -> Ok ()
      | Error msg ->
          exchange store solution;
          Error ("initialization produced invalid state: " ^ msg))
