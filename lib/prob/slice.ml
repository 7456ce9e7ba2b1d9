(* Bounds the shrink loop; an exhausted loop keeps the current point. *)
let max_shrink = 100

let step_stats rng ~log_density ~lower ~upper ~current =
  if not (current >= lower && current <= upper) then
    invalid_arg "Slice.step: current point outside the interval";
  let ly = log_density current in
  if not (Float.is_finite ly) then
    invalid_arg "Slice.step: current point has non-finite log-density";
  (* vertical level: ly + log U, U ~ Unif(0,1] *)
  let level = ly +. log (Rng.float_pos rng) in
  (* the interval itself is the initial slice bracket (no stepping out
     needed: the support is already bounded); shrink on rejection *)
  let rec shrink lo hi n =
    if n = 0 then (current, max_shrink)
    else begin
      let x = Rng.float_range rng lo hi in
      if log_density x >= level then (x, max_shrink - n)
      else if x < current then shrink x hi (n - 1)
      else shrink lo x (n - 1)
    end
  in
  shrink lower upper max_shrink

let step rng ~log_density ~lower ~upper ~current =
  fst (step_stats rng ~log_density ~lower ~upper ~current)
