module D = Qnet_prob.Distributions
module Fsm = Qnet_fsm.Fsm

let tandem ~arrival_rate ~service_rates =
  if arrival_rate <= 0.0 then invalid_arg "Topologies.tandem: arrival_rate must be > 0";
  if service_rates = [] then invalid_arg "Topologies.tandem: no queues";
  let k = List.length service_rates in
  let num_queues = k + 1 in
  let fsm = Fsm.linear ~queues:(List.init (k + 1) Fun.id) ~num_queues in
  let service =
    Array.of_list (D.Exponential arrival_rate :: List.map (fun r -> D.Exponential r) service_rates)
  in
  Network.create ~fsm ~service ()

let three_tier ?balancer_weights ~arrival_rate ~tier_sizes:(n1, n2, n3) ~service_rate () =
  if n1 < 1 || n2 < 1 || n3 < 1 then
    invalid_arg "Topologies.three_tier: tiers must be non-empty";
  let num_queues = 1 + n1 + n2 + n3 in
  let tier_offsets = [| 1; 1 + n1; 1 + n1 + n2 |] in
  let tier_sizes = [| n1; n2; n3 |] in
  let weights tier =
    match balancer_weights with
    | None -> Array.make tier_sizes.(tier) 1.0
    | Some w ->
        if Array.length w <> 3 || Array.length w.(tier) <> tier_sizes.(tier) then
          invalid_arg "Topologies.three_tier: balancer_weights shape mismatch";
        w.(tier)
  in
  (* States: 0 = initial (emits q0), 1..3 = tiers, 4 = final. *)
  let transitions =
    [ (0, [ (1, 1.0) ]); (1, [ (2, 1.0) ]); (2, [ (3, 1.0) ]); (3, [ (4, 1.0) ]) ]
  in
  let emissions =
    (0, [ (0, 1.0) ])
    :: List.init 3 (fun tier ->
           let w = weights tier in
           ( tier + 1,
             List.init tier_sizes.(tier) (fun i -> (tier_offsets.(tier) + i, w.(i))) ))
  in
  let fsm =
    Fsm.create ~num_states:5 ~num_queues ~initial:0 ~final:4 ~transitions ~emissions
  in
  let names =
    Array.init num_queues (fun q ->
        if q = 0 then "q0"
        else if q < 1 + n1 then Printf.sprintf "tier1.%d" (q - 1)
        else if q < 1 + n1 + n2 then Printf.sprintf "tier2.%d" (q - 1 - n1)
        else Printf.sprintf "tier3.%d" (q - 1 - n1 - n2))
  in
  let service =
    Array.init num_queues (fun q ->
        if q = 0 then D.Exponential arrival_rate else D.Exponential service_rate)
  in
  Network.create ~names ~fsm ~service ()

let paper_structures =
  let mk name sizes =
    (name, three_tier ~arrival_rate:10.0 ~tier_sizes:sizes ~service_rate:5.0 ())
  in
  [
    mk "1-2-4" (1, 2, 4);
    mk "2-1-4" (2, 1, 4);
    mk "4-2-1" (4, 2, 1);
    mk "2-4-1" (2, 4, 1);
    mk "1-4-2" (1, 4, 2);
  ]

let single_mm1 ~arrival_rate ~service_rate =
  tandem ~arrival_rate ~service_rates:[ service_rate ]

let feedback ~arrival_rate ~service_rate ~loop_prob =
  if loop_prob < 0.0 || loop_prob >= 1.0 then
    invalid_arg "Topologies.feedback: loop_prob must be in [0,1)";
  (* States: 0 = initial (emits q0), 1 = at server (emits q1), 2 = final. *)
  let transitions =
    [ (0, [ (1, 1.0) ]); (1, [ (1, loop_prob); (2, 1.0 -. loop_prob) ]) ]
  in
  let emissions = [ (0, [ (0, 1.0) ]); (1, [ (1, 1.0) ]) ] in
  let fsm =
    Fsm.create ~num_states:3 ~num_queues:2 ~initial:0 ~final:2 ~transitions ~emissions
  in
  Network.create ~fsm
    ~service:[| D.Exponential arrival_rate; D.Exponential service_rate |]
    ()
