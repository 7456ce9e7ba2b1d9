module Store = Event_store
module Dcs = Qnet_lp.Difference_constraints
module Simplex = Qnet_lp.Simplex
module Span = Qnet_obs.Span

type strategy = Earliest | Latest | Centered | Targeted

(* Enumerate the timing constraints induced by the fixed structure, in
   the order the solver receives them: [order i j] for
   x_i - x_j <= -slack (i strictly before j), [lower i] for
   x_i >= slack and [eq i] for x_i fixed at its observed departure.
   Constraints between two observed (hence fixed) departures are
   skipped: they hold in any mask derived from a valid trace. *)
let iter_constraints (v : Store.view) ~order ~lower ~eq =
  let fixed = v.Store.v_observed and pi = v.Store.v_pi in
  let order i j = if not (fixed.(i) && fixed.(j)) then order i j in
  for i = 0 to Array.length fixed - 1 do
    if fixed.(i) then eq i;
    (* service of i is non-negative: d_i >= a_i and d_i >= d_rho(i) *)
    let p = pi.(i) in
    if p >= 0 then order p i else if not fixed.(i) then lower i;
    let r = v.Store.v_rho.(i) in
    if r >= 0 then order r i;
    (* arrival order at i's queue: a_i <= a_{rho_inv i} *)
    let j = v.Store.v_rho_inv.(i) in
    if j >= 0 && p >= 0 && pi.(j) >= 0 then order p pi.(j)
  done

(* The number of constraints [iter_constraints] yields, an equality
   counting as its two bounds. *)
let count_constraints v =
  let count = ref 0 in
  iter_constraints v
    ~order:(fun _ _ -> incr count)
    ~lower:(fun _ -> incr count)
    ~eq:(fun _ -> count := !count + 2);
  !count

let build_system ~slack (v : Store.view) =
  let m = Array.length v.Store.v_departure in
  (* Cap from observed data only: latent values must not leak. *)
  let max_obs = ref 0.0 in
  for i = 0 to m - 1 do
    if v.Store.v_observed.(i) then max_obs := Float.max !max_obs v.Store.v_departure.(i)
  done;
  let sys =
    Dcs.create ~default_upper:((1.5 *. !max_obs) +. 10.0) ~capacity:(count_constraints v) m
  in
  (* the closure holds one boxed -slack for every call *)
  let before = -.slack in
  iter_constraints v
    ~order:(fun i j -> Dcs.add_le sys i j before)
    ~lower:(fun i -> Dcs.add_lower sys i slack)
    ~eq:(fun i -> Dcs.add_eq sys i v.Store.v_departure.(i));
  sys

let constraint_count store = count_constraints (Store.view store)

(* Through the view, so no value is boxed; a NaN goes through
   [Store.set_departure], which rejects it. *)
let write_solution store solution =
  let v = Store.view store in
  for i = 0 to Array.length solution - 1 do
    if not v.Store.v_observed.(i) then begin
      let x = solution.(i) in
      if Float.is_nan x then Store.set_departure store i x else v.Store.v_departure.(i) <- x
    end
  done

(* The "x_v >= x_u + slack" dependency edges as compressed rows: row u
   holds u's successors [succ.(first.(u))] to [succ.(first.(u + 1) - 1)].
   They are service non-negativity (pi(i) -> i and rho(i) -> i) and the
   per-queue arrival order (pi(i) -> pi(j) for consecutive arrivals i,
   j). All point forward in time, so the graph is acyclic for any store
   built from a valid trace. *)
let dependency_rows (v : Store.view) =
  let m = Array.length v.Store.v_departure in
  let pi = v.Store.v_pi and rho = v.Store.v_rho and rho_inv = v.Store.v_rho_inv in
  let iter_edges f =
    for i = 0 to m - 1 do
      let p = pi.(i) and r = rho.(i) in
      if p >= 0 then f p i;
      if r >= 0 then f r i;
      let j = rho_inv.(i) in
      if j >= 0 && p >= 0 && pi.(j) >= 0 then f p pi.(j)
    done
  in
  let first = Array.make (m + 1) 0 in
  iter_edges (fun u _ -> first.(u + 1) <- first.(u + 1) + 1);
  for u = 1 to m do
    first.(u) <- first.(u) + first.(u - 1)
  done;
  let succ = Array.make first.(m) 0 in
  let next = Array.sub first 0 m in
  iter_edges (fun u w ->
      succ.(next.(u)) <- w;
      next.(u) <- next.(u) + 1);
  (first, succ)

(* Greedy LP surrogate: in dependency order (Kahn's, over an int array
   that serves as its own queue), give each latent event a departure of
   (service start + target mean service), clamped into [all incoming
   dependencies + slack, latest-feasible]. Clamping by the
   componentwise-latest solution keeps every later constraint
   satisfiable; the dependency walk keeps every earlier one satisfied.
   [floor.(i)] gathers max (value u + slack) over i's finished
   predecessors u. *)
let targeted_solution ~slack (v : Store.view) (target : Params.t) latest =
  let m = Array.length v.Store.v_departure in
  let observed = v.Store.v_observed and departure = v.Store.v_departure in
  let pi = v.Store.v_pi and rho = v.Store.v_rho in
  let first, succ = dependency_rows v in
  let indegree = Array.make m 0 in
  Array.iter (fun w -> indegree.(w) <- indegree.(w) + 1) succ;
  let order = Array.make m 0 in
  let tail = ref 0 in
  for i = 0 to m - 1 do
    if indegree.(i) = 0 then begin
      order.(!tail) <- i;
      incr tail
    end
  done;
  let solution = Array.make m 0.0 in
  let floor = Array.make m neg_infinity in
  let head = ref 0 in
  while !head < !tail do
    let i = order.(!head) in
    incr head;
    if observed.(i) then solution.(i) <- departure.(i)
    else begin
      let p = pi.(i) and r = rho.(i) in
      let arrival = if p < 0 then 0.0 else solution.(p) in
      let start = if r < 0 then arrival else Float.max arrival solution.(r) in
      let lower = Float.max (Float.max slack (start +. slack)) floor.(i) in
      let wanted = start +. (1.0 /. target.Params.rates.(v.Store.v_queue.(i))) in
      solution.(i) <- Float.min latest.(i) (Float.max lower wanted)
    end;
    let reach = solution.(i) +. slack in
    for e = first.(i) to first.(i + 1) - 1 do
      let w = succ.(e) in
      floor.(w) <- Float.max floor.(w) reach;
      indegree.(w) <- indegree.(w) - 1;
      if indegree.(w) = 0 then begin
        order.(!tail) <- w;
        incr tail
      end
    done
  done;
  assert (!tail = m);
  solution

let feasible ?strategy ?(slack = 1e-9) ?target store =
  Span.with_span "init.feasible" @@ fun () ->
  let strategy =
    match (strategy, target) with
    | Some s, _ -> s
    | None, Some _ -> Targeted
    | None, None -> Centered
  in
  let v = Store.view store in
  let sys = build_system ~slack v in
  let solved =
    match strategy with
    | Earliest -> Dcs.solve sys `Earliest
    | Latest -> Dcs.solve sys `Latest
    | Centered -> Dcs.solve_centered sys
    | Targeted -> (
        match target with
        | None -> invalid_arg "Init.feasible: Targeted strategy requires ~target"
        | Some params -> (
            match Dcs.solve sys `Latest with
            | Error e -> Error e
            | Ok latest -> Ok (targeted_solution ~slack v params latest)))
  in
  match solved with
  | Error { Dcs.message } -> Error message
  | Ok solution ->
      write_solution store solution;
      (match Store.validate store with
      | Ok () -> Ok ()
      | Error msg -> Error ("initialization produced invalid state: " ^ msg))

let lp ?(slack = 1e-9) store params =
  let m = Store.num_events store in
  (* Variable layout: d_i = i, b_i = m+i, u_i = 2m+i, v_i = 3m+i.
     b_i is the relaxed service start (>= every lower bound on the
     true max); u - v = s - target splits the L1 objective. *)
  let d i = i and b i = m + i and u i = (2 * m) + i and v i = (3 * m) + i in
  let constraints = ref [] in
  let add coeffs relation rhs =
    constraints := { Simplex.coeffs; relation; rhs } :: !constraints
  in
  for i = 0 to m - 1 do
    if Store.observed store i then
      add [ (d i, 1.0) ] Simplex.Eq (Store.departure store i);
    let target = Params.mean_service params (Store.queue store i) in
    let p = Store.pi store i in
    (* b_i >= a_i *)
    if p >= 0 then add [ (b i, 1.0); (d p, -1.0) ] Simplex.Ge 0.0;
    (* b_i >= d_rho(i) *)
    let r = Store.rho store i in
    if r >= 0 then add [ (b i, 1.0); (d r, -1.0) ] Simplex.Ge 0.0;
    (* s_i = d_i - b_i >= slack *)
    add [ (d i, 1.0); (b i, -1.0) ] Simplex.Ge slack;
    (* d_i - b_i - u_i + v_i = target *)
    add [ (d i, 1.0); (b i, -1.0); (u i, -1.0); (v i, 1.0) ] Simplex.Eq target;
    (* arrival order at i's queue *)
    let j = Store.rho_inv store i in
    if j >= 0 then begin
      let pj = Store.pi store j in
      if p >= 0 && pj >= 0 then
        add [ (d p, 1.0); (d pj, -1.0) ] Simplex.Le (-.slack)
    end
  done;
  let objective = List.init m (fun i -> [ (u i, 1.0); (v i, 1.0) ]) |> List.concat in
  let problem =
    {
      Simplex.num_vars = 4 * m;
      objective;
      minimize = true;
      constraints = !constraints;
    }
  in
  match Simplex.solve problem with
  | Simplex.Infeasible -> Error "LP initialization: infeasible"
  | Simplex.Unbounded -> Error "LP initialization: unbounded (bug)"
  | Simplex.Optimal { objective_value; solution } ->
      write_solution store (Array.sub solution 0 m);
      (match Store.validate store with
      | Ok () -> Ok objective_value
      | Error msg -> Error ("LP initialization produced invalid state: " ^ msg))
