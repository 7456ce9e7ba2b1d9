(* Effective samples per second of the Gibbs sweep, in index order and
   shuffled (make bench-ess).

   The fixture is bench/main.exe's size sweep: the three-tier 1-2-4
   network at 10k, 100k or 1m events, 5% of tasks observed, swept under
   the true rates from a targeted Init. After a burn-in, every kept
   sweep records each non-arrival queue's realized mean service and
   mean waiting: 14 series. A run reports the median and the minimum
   ESS across the series (Statistics.effective_sample_size) and its
   mean seconds per sweep; ESS per second is the ESS over the kept
   sweeps' time. Per size and order the table prints the range of
   seconds per sweep across seeds and the median across seeds of the
   rest. Both orders of a seed start from one state, and the order that
   runs first alternates by seed.

   Run with: dune exec bench/ess.exe -- [--sizes 10k,100k,1m]
   The default is 10k and 100k at 5 seeds each, about 5 minutes on a
   2-core VM; 1m runs 3 seeds and takes about 11 more. It exits 1 when
   a 10k seed's in-order chain mixes worse than [floors_10k]. *)

module Rng = Qnet_prob.Rng
module Stats = Qnet_prob.Statistics
module Topologies = Qnet_des.Topologies
module Network = Qnet_des.Network
module Obs = Qnet_core.Observation
module Store = Qnet_core.Event_store
module Params = Qnet_core.Params
module Gibbs = Qnet_core.Gibbs
module Init = Qnet_core.Init

type spec = { label : string; tasks : int; burn_in : int; kept : int; seeds : int }

let specs =
  [
    { label = "10k"; tasks = 2632; burn_in = 500; kept = 2000; seeds = 5 };
    { label = "100k"; tasks = 26316; burn_in = 150; kept = 600; seeds = 5 };
    { label = "1m"; tasks = 263158; burn_in = 50; kept = 200; seeds = 3 };
  ]

let net = Topologies.three_tier ~arrival_rate:10.0 ~tier_sizes:(1, 2, 4) ~service_rate:5.0 ()
let truth = Params.of_network net

let start_store spec seed =
  let trace = Network.simulate_poisson (Rng.create ~seed ()) net ~num_tasks:spec.tasks in
  let mask = Obs.mask (Rng.create ~seed:(seed + 1000) ()) (Obs.Task_fraction 0.05) trace in
  let store = Store.of_trace ~observed:mask trace in
  (match Init.feasible ~target:truth store with Ok () -> () | Error m -> failwith m);
  store

type run = { seconds_per_sweep : float; median_ess : float; min_ess : float }

(* The mixing floor: (median ESS, min ESS) of the 10k in-order chain of
   seeds 1-5, at 95% of what they read at 5548438 (68.2/8.0,
   118.9/17.1, 87.8/8.4, 138.0/7.3, 121.1/7.2). ESS is a deterministic
   function of a seeded chain: a change that keeps the chain's bits
   reads exactly those values, and the linear-space draw, which moves
   the bits but applies the same inverse CDF to the same uniforms, read
   every one of them to 0.1. A sweep that visits the even-indexed latent
   events on even sweeps and the odd ones on odd sweeps leaves the
   posterior invariant but mixes about half as fast, and fails here. *)
let floors_10k = [| (64.7, 7.6); (112.9, 16.2); (83.4, 7.9); (131.1, 6.9); (115.0, 6.8) |]

let chain spec ~shuffle ~seed start =
  let store = Store.copy start in
  let rng = Rng.create ~seed:(seed + 2000) () in
  let q0 = Store.arrival_queue store in
  let queues = List.init (Store.num_queues store) Fun.id |> List.filter (( <> ) q0) in
  let queues = Array.of_list queues in
  let series = Array.init (2 * Array.length queues) (fun _ -> Array.make spec.kept 0.0) in
  Gibbs.run ~shuffle ~sweeps:spec.burn_in rng store truth;
  let seconds = ref 0.0 in
  for k = 0 to spec.kept - 1 do
    let t0 = Unix.gettimeofday () in
    Gibbs.sweep ~shuffle rng store truth;
    seconds := !seconds +. (Unix.gettimeofday () -. t0);
    let service = Store.mean_service_by_queue store in
    let waiting = Store.mean_waiting_by_queue store in
    Array.iteri
      (fun j q ->
        series.(2 * j).(k) <- service.(q);
        series.((2 * j) + 1).(k) <- waiting.(q))
      queues
  done;
  let ess = Array.map Stats.effective_sample_size series in
  {
    seconds_per_sweep = !seconds /. float_of_int spec.kept;
    median_ess = Stats.median ess;
    min_ess = Array.fold_left Float.min infinity ess;
  }

let order_name shuffle = if shuffle then "shuffled" else "in order"

let run_size spec =
  let pairs =
    Array.init spec.seeds (fun i ->
        let seed = i + 1 in
        let start = start_store spec seed in
        let run shuffle =
          let r = chain spec ~shuffle ~seed start in
          Printf.printf "# %s seed %d %-8s %.4f s/sweep, ESS median %.1f min %.1f\n%!"
            spec.label seed (order_name shuffle) r.seconds_per_sweep r.median_ess r.min_ess;
          r
        in
        if seed mod 2 = 1 then
          let in_order = run false in
          (in_order, run true)
        else
          let shuffled = run true in
          (run false, shuffled))
  in
  [ (false, Array.map fst pairs); (true, Array.map snd pairs) ]

let print_rows spec rows =
  List.iteri
    (fun i (shuffle, runs) ->
      let per_s ess r = ess r /. (float_of_int spec.kept *. r.seconds_per_sweep) in
      let col f = Stats.median (Array.map f runs) in
      let s = Array.map (fun r -> r.seconds_per_sweep) runs in
      Printf.printf "| %s | %s | %.4f–%.4f | %.1f | %.1f | %.3g | %.3g |\n"
        (if i = 0 then Printf.sprintf "%s, %d, %d" spec.label spec.kept (Array.length runs)
         else "")
        (order_name shuffle)
        (Array.fold_left Float.min infinity s)
        (Array.fold_left Float.max neg_infinity s)
        (col (fun r -> r.median_ess))
        (col (fun r -> r.min_ess))
        (col (per_s (fun r -> r.median_ess)))
        (col (per_s (fun r -> r.min_ess))))
    rows

let () =
  let sizes = ref "10k,100k" in
  Arg.parse
    [ ("--sizes", Arg.Set_string sizes, "LIST comma-separated sizes (10k, 100k, 1m)") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ess.exe [--sizes 10k,100k,1m]";
  let wanted = String.split_on_char ',' !sizes in
  let chosen = List.filter (fun s -> List.mem s.label wanted) specs in
  if chosen = [] then failwith "--sizes matched no size (known: 10k 100k 1m)";
  let results = List.map (fun spec -> (spec, run_size spec)) chosen in
  print_string
    "| size, kept sweeps, seeds | order | s/sweep | median ESS | min ESS | median ESS/s | min ESS/s |\n\
     |---|---|---:|---:|---:|---:|---:|\n";
  List.iter (fun (spec, rows) -> print_rows spec rows) results;
  let below =
    match List.find_opt (fun (spec, _) -> spec.label = "10k") results with
    | None -> []
    | Some (_, rows) ->
        List.assoc false rows |> Array.to_list
        |> List.mapi (fun i r -> (i + 1, r, floors_10k.(i)))
        |> List.filter (fun (_, r, (median, min)) -> r.median_ess < median || r.min_ess < min)
  in
  List.iter
    (fun (seed, r, (median, min)) ->
      Printf.printf "FAIL: 10k seed %d in order: ESS median %.1f min %.1f, floor %.1f / %.1f\n"
        seed r.median_ess r.min_ess median min)
    below;
  if below <> [] then exit 1
