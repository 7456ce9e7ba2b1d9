module D = Qnet_prob.Distributions
module Network = Qnet_des.Network

type t = { rates : float array; arrival_queue : int }

let create ~rates ~arrival_queue =
  Array.iteri
    (fun q r ->
      if not (r > 0.0 && Float.is_finite r) then
        invalid_arg (Printf.sprintf "Params.create: rate of queue %d must be positive" q))
    rates;
  if arrival_queue < 0 || arrival_queue >= Array.length rates then
    invalid_arg "Params.create: arrival_queue out of range";
  { rates = Array.copy rates; arrival_queue }

let of_network net =
  let rates =
    Array.init (Network.num_queues net) (fun q ->
        match Network.service net q with
        | D.Exponential r -> r
        | d ->
            invalid_arg
              (Format.asprintf "Params.of_network: queue %d is not exponential (%a)" q
                 D.pp d))
  in
  create ~rates ~arrival_queue:(Network.arrival_queue net)

let num_queues t = Array.length t.rates
let rate t q = t.rates.(q)
let arrival_rate t = t.rates.(t.arrival_queue)
let mean_service t q = 1.0 /. t.rates.(q)

let map_rates t f =
  let rates = Array.mapi (fun q r -> f q r) t.rates in
  create ~rates ~arrival_queue:t.arrival_queue

let distance a b =
  if Array.length a.rates <> Array.length b.rates then
    invalid_arg "Params.distance: dimension mismatch";
  let d = ref 0.0 in
  Array.iteri
    (fun q ra ->
      let diff = Float.abs ((1.0 /. ra) -. (1.0 /. b.rates.(q))) in
      if diff > !d then d := diff)
    a.rates;
  !d

let pp ppf t =
  Format.fprintf ppf "@[<h>lambda=%.4g; mu=[" (arrival_rate t);
  Array.iteri
    (fun q r ->
      if q <> t.arrival_queue then Format.fprintf ppf " %d:%.4g" q r)
    t.rates;
  Format.fprintf ppf " ]@]"
