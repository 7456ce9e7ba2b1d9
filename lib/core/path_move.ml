module Rng = Qnet_prob.Rng
module Fsm = Qnet_fsm.Fsm
module Store = Event_store

type stats = { proposed : int; accepted : int; infeasible : int }

let emission_weights fsm state =
  List.filter (fun (_, p) -> p > 0.0) (Fsm.emitted_queues fsm state)

let eligible store fsm i =
  Store.pi store i >= 0
  && Store.queue store i <> Store.arrival_queue store
  && List.length (emission_weights fsm (Store.state store i)) >= 2

(* log-likelihood contribution of one event under the current state *)
let term store params j =
  let mu = Params.rate params (Store.queue store j) in
  log mu -. (mu *. Store.service store j)

(* the event that would follow [i] (arrival a) in queue q'. *)
let successor_after_insert store q' a =
  let order = Store.events_at_queue store q' in
  let n = Array.length order in
  let rec find k =
    if k >= n then -1
    else if Store.arrival store order.(k) > a then order.(k)
    else find (k + 1)
  in
  find 0

let resample_event rng store params fsm i =
  if not (eligible store fsm i) then `Ineligible
  else begin
    let q = Store.queue store i in
    let weights = emission_weights fsm (Store.state store i) in
    let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 weights in
    let w_current =
      List.fold_left (fun acc (qq, p) -> if qq = q then acc +. p else acc) 0.0 weights
    in
    let alternatives = List.filter (fun (qq, _) -> qq <> q) weights in
    match alternatives with
    | [] -> `Ineligible
    | _ ->
        let alt_weights = Array.of_list (List.map snd alternatives) in
        let pick = Rng.categorical rng alt_weights in
        let q', w_proposed = List.nth alternatives pick in
        (* the affected events: i, its current within-queue successor,
           and the event it will precede after the move *)
        let old_succ = Store.rho_inv store i in
        let new_succ = successor_after_insert store q' (Store.arrival store i) in
        let affected =
          List.sort_uniq compare
            (List.filter (fun j -> j >= 0) [ i; old_succ; new_succ ])
        in
        let before = List.fold_left (fun acc j -> acc +. term store params j) 0.0 affected in
        Store.move_event store i ~queue:q';
        (* feasibility: the fixed departure must fit the new chain *)
        let feasible =
          Store.service store i >= 0.0
          && (new_succ < 0 || Store.service store new_succ >= 0.0)
        in
        if not feasible then begin
          Store.move_event store i ~queue:q;
          `Infeasible
        end
        else begin
          let after =
            List.fold_left (fun acc j -> acc +. term store params j) 0.0 affected
          in
          (* prior x proposal correction: (W - w_q) / (W - w_q') *)
          let log_accept =
            after -. before +. log (total -. w_current) -. log (total -. w_proposed)
          in
          if log (Rng.float_pos rng) <= log_accept then `Accepted
          else begin
            Store.move_event store i ~queue:q;
            `Rejected
          end
        end
  end

let sweep rng store params fsm =
  let targets =
    Array.of_list
      (List.filter
         (fun i -> eligible store fsm i)
         (Array.to_list (Store.unobserved_events store)))
  in
  let proposed = ref 0 and accepted = ref 0 and infeasible = ref 0 in
  Array.iter
    (fun i ->
      match resample_event rng store params fsm i with
      | `Accepted ->
          incr proposed;
          incr accepted
      | `Rejected -> incr proposed
      | `Infeasible ->
          incr proposed;
          incr infeasible
      | `Ineligible -> ())
    targets;
  { proposed = !proposed; accepted = !accepted; infeasible = !infeasible }
