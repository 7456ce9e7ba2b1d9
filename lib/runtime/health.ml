module Store = Qnet_core.Event_store
module Params = Qnet_core.Params

type violation =
  | Nan_latent of int
  | Negative_service of int * float
  | Departure_before_arrival of int
  | Fifo_violation of int * int
  | Chain_leak of int * int
  | Nonfinite_log_likelihood of float
  | Degenerate_rate of int * float
  | Sample_loss of int * int

let pp_violation ppf = function
  | Nan_latent i -> Format.fprintf ppf "nan-latent(%d)" i
  | Sample_loss (skipped, kept) ->
      Format.fprintf ppf "sample-loss(%d skipped / %d kept)" skipped kept
  | Negative_service (i, s) -> Format.fprintf ppf "negative-service(%d: %.3g)" i s
  | Departure_before_arrival i ->
      Format.fprintf ppf "departure-before-arrival(%d)" i
  | Fifo_violation (q, i) -> Format.fprintf ppf "fifo-violation(q%d, %d)" q i
  | Chain_leak (want, got) -> Format.fprintf ppf "chain-leak(%d/%d)" got want
  | Nonfinite_log_likelihood l ->
      Format.fprintf ppf "nonfinite-log-likelihood(%g)" l
  | Degenerate_rate (q, r) -> Format.fprintf ppf "degenerate-rate(q%d: %g)" q r

let describe = function
  | [] -> "healthy"
  | vs ->
      Format.asprintf "%d violation%s: %a" (List.length vs)
        (if List.length vs = 1 then "" else "s")
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
           pp_violation)
        vs

let[@inline] arrival d pi i =
  let p = pi.(i) in
  if p < 0 then 0.0 else d.(p)

(* Slack for time comparisons, matching [Event_store.validate]. *)
let tol = 1e-9

(* Bound on plausible rates: the exponential M-step can ratchet rates
   toward infinity under sparse observation, and a rate beyond any
   physical service time is a collapse, not an estimate. *)
let max_rate = 1e12

(* The store's arrays are read in place through its view, and each
   queue's ρ chain is walked from its head, so a check reads no time
   through a function and builds no per-queue array. *)
let check store params =
  let acc = ref [] in
  let push v = acc := v :: !acc in
  let v = Store.view store in
  let d = v.Store.v_departure and pi = v.Store.v_pi and rho = v.Store.v_rho in
  let n = Array.length d in
  (* Per-event: finite departures, non-negative services, causality. *)
  for i = 0 to n - 1 do
    let di = d.(i) in
    if not (Float.is_finite di) then push (Nan_latent i)
    else begin
      let a = arrival d pi i in
      if Float.is_finite a && di < a -. tol then push (Departure_before_arrival i);
      let r = rho.(i) in
      let s = di -. if r < 0 then a else Float.max a d.(r) in
      if Float.is_finite s && s < -.tol then push (Negative_service (i, s))
    end
  done;
  (* Per-queue FIFO order along the fixed ρ chains, and chain
     coverage: every event must appear on exactly one chain. *)
  let walked = ref 0 in
  for q = 0 to Store.num_queues store - 1 do
    let prev_arrival = ref neg_infinity and i = ref v.Store.v_heads.(q) in
    while !i >= 0 do
      let e = !i in
      incr walked;
      let a = arrival d pi e in
      if v.Store.v_queue.(e) <> q then push (Fifo_violation (q, e))
      else if Float.is_finite a && a < !prev_arrival -. tol then push (Fifo_violation (q, e));
      if Float.is_finite a then prev_arrival := Float.max !prev_arrival a;
      i := v.Store.v_rho_inv.(e)
    done
  done;
  if !walked <> n then push (Chain_leak (n, !walked));
  (* Parameters: positive, finite, physically plausible rates. *)
  for q = 0 to Params.num_queues params - 1 do
    let r = Params.rate params q in
    if not (Float.is_finite r && r > 0.0) || r > max_rate then
      push (Degenerate_rate (q, r))
  done;
  (* Total log-likelihood must be finite: a -inf here means a negative
     service slipped past tolerance, +inf/NaN means numerical
     poisoning. Only meaningful when dimensions agree. *)
  if Params.num_queues params = Store.num_queues store then begin
    let llh = Store.log_likelihood store params in
    if not (Float.is_finite llh) then push (Nonfinite_log_likelihood llh)
  end;
  List.rev !acc

let of_accumulator w =
  let skipped = Qnet_prob.Statistics.Welford.skipped w in
  if skipped > 0 then [ Sample_loss (skipped, Qnet_prob.Statistics.Welford.count w) ]
  else []
