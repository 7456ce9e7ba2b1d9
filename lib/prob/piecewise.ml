type hinge = { knee : float; slope : float }

type t = {
  lower : float;
  upper : float;
  breaks : float array; (* n + 1 entries; breaks.(0) = lower, breaks.(n) = upper *)
  rates : float array; (* n entries: log-density slope on each piece *)
  logvals : float array; (* n + 1 entries: log-density at each break, the largest 0 *)
  masses : float array; (* n entries: mass of each piece under exp logvals *)
  z : float; (* the masses' sum *)
}

let tiny_rate_width = 1e-12

(* The integral of exp (lo + r * (x - t0)) over x in [t0, t0 + w], where
   lo and hi are the log-density at the piece's left and right edges:
   the value at the higher edge times (1 - e^{-|r|w}) / |r|. With the
   largest break value at 0 neither factor can overflow. *)
let piece_mass ~lo ~hi ~rate:r ~width:w =
  let rw = r *. w in
  if Float.abs rw < tiny_rate_width then exp (lo +. (0.5 *. rw)) *. w
  else if r > 0.0 then exp hi *. (-.Float.expm1 (-.rw) /. r)
  else exp lo *. (Float.expm1 rw /. r)

(* Inverse of the within-piece CDF: given the mass fraction q of the
   piece that should lie left of the answer, return the offset y from
   the left edge, 0 <= y <= w. Solves (e^{ry} - 1) / (e^{rw} - 1) = q:
   y = log1p (q * expm1 (rw)) / r, or w + log q / r where expm1 (rw)
   overflows (the two agree far below double precision there). *)
let invert_piece ~rate:r ~width:w q =
  if q <= 0.0 then 0.0
  else if q >= 1.0 then w
  else begin
    let rw = r *. w in
    if Float.abs rw < tiny_rate_width then q *. w
    else begin
      let em = Float.expm1 rw in
      let y = if em < infinity then Float.log1p (q *. em) /. r else w +. (log q /. r) in
      Float.max 0.0 (Float.min w y)
    end
  end

let compile ~lower ~upper ~linear ~hinges =
  if not (Float.is_finite lower && Float.is_finite upper) then
    invalid_arg "Piecewise.compile: interval must be finite";
  if not (lower < upper) then invalid_arg "Piecewise.compile: need lower < upper";
  (* A hinge with a non-finite knee or slope comes from corrupted state
     (NaN latents upstream); dropping it keeps the density well defined
     instead of poisoning every piece mass downstream. *)
  let hinges =
    List.filter
      (fun h -> Float.is_finite h.knee && Float.is_finite h.slope)
      hinges
  in
  (* Hinges left of the interval act on every point; hinges right of it
     never act. Interior knees become breakpoints. *)
  let base_slope =
    List.fold_left
      (fun acc h -> if h.knee <= lower then acc +. h.slope else acc)
      linear hinges
  in
  let interior =
    List.filter (fun h -> h.knee > lower && h.knee < upper && not (Float.equal h.slope 0.0)) hinges
  in
  let knees =
    List.sort_uniq compare (List.map (fun h -> h.knee) interior)
  in
  let breaks = Array.of_list ((lower :: knees) @ [ upper ]) in
  let n = Array.length breaks - 1 in
  let rates = Array.make n base_slope in
  (* A hinge contributes its slope to every piece whose left edge is at
     or right of the knee. *)
  List.iter
    (fun h ->
      for i = 0 to n - 1 do
        if breaks.(i) >= h.knee then rates.(i) <- rates.(i) +. h.slope
      done)
    interior;
  let logvals = Array.make (n + 1) 0.0 in
  for i = 0 to n - 1 do
    logvals.(i + 1) <- logvals.(i) +. (rates.(i) *. (breaks.(i + 1) -. breaks.(i)))
  done;
  (* Re-centre so the largest log value is 0: keeps exp () in range. *)
  let m = Array.fold_left max neg_infinity logvals in
  Array.iteri (fun i v -> logvals.(i) <- v -. m) logvals;
  let masses =
    Array.init n (fun i ->
        piece_mass ~lo:logvals.(i) ~hi:logvals.(i + 1) ~rate:rates.(i)
          ~width:(breaks.(i + 1) -. breaks.(i)))
  in
  let z = Array.fold_left ( +. ) 0.0 masses in
  { lower; upper; breaks; rates; logvals; masses; z }

let lower t = t.lower
let upper t = t.upper

let pieces t =
  List.init (Array.length t.rates) (fun i ->
      (t.breaks.(i), t.breaks.(i + 1), t.rates.(i)))

let find_piece t x =
  (* Largest i with breaks.(i) <= x; binary search. *)
  let n = Array.length t.rates in
  let rec go lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi + 1) / 2 in
      if t.breaks.(mid) <= x then go mid hi else go lo (mid - 1)
  in
  Int.min (go 0 (n - 1)) (n - 1)

let log_density t x =
  if x < t.lower || x > t.upper then neg_infinity
  else
    let i = find_piece t x in
    t.logvals.(i) +. (t.rates.(i) *. (x -. t.breaks.(i)))

let log_normalizer t = log t.z

let cdf t x =
  if x <= t.lower then 0.0
  else if x >= t.upper then 1.0
  else begin
    let i = find_piece t x in
    let lo = t.logvals.(i) and r = t.rates.(i) and w = x -. t.breaks.(i) in
    let acc = ref (piece_mass ~lo ~hi:(lo +. (r *. w)) ~rate:r ~width:w) in
    for j = 0 to i - 1 do
      acc := !acc +. t.masses.(j)
    done;
    !acc /. t.z
  end

let quantile t p =
  if p < 0.0 || p > 1.0 || Float.is_nan p then
    invalid_arg "Piecewise.quantile: p outside [0,1]";
  if Float.equal p 0.0 then t.lower
  else if Float.equal p 1.0 then t.upper
  else begin
    let n = Array.length t.rates in
    (* Walk pieces accumulating normalized mass until we bracket p. *)
    let rec walk i acc =
      if i >= n then (n - 1, 1.0)
      else
        let w = t.masses.(i) /. t.z in
        if acc +. w >= p || i = n - 1 then (i, (p -. acc) /. w) else walk (i + 1) (acc +. w)
    in
    let i, q = walk 0 0.0 in
    let q = Float.max 0.0 (Float.min 1.0 q) in
    t.breaks.(i)
    +. invert_piece ~rate:t.rates.(i)
         ~width:(t.breaks.(i + 1) -. t.breaks.(i))
         q
  end

let sample rng t =
  let i = if Array.length t.masses = 1 then 0 else Rng.categorical rng t.masses in
  let q = Rng.float_unit rng in
  t.breaks.(i)
  +. invert_piece ~rate:t.rates.(i) ~width:(t.breaks.(i + 1) -. t.breaks.(i)) q

(* The mean offset from the left edge of a piece of width w with slope
   r, a truncated exponential: 1/λ − w/expm1(λw) for a falling piece
   (λ = −r), w − 1/r + w/expm1(rw) for a rising one, and the series
   w/2 + rw²/12 where |rw| is small enough that those cancel. expm1
   overflowing to infinity leaves the untruncated limit. *)
let mean_offset ~rate:r ~width:w =
  let rw = r *. w in
  if Float.abs rw < 1e-4 then (0.5 *. w) +. (rw *. w /. 12.0)
  else if r < 0.0 then (-1.0 /. r) -. (w /. Float.expm1 (-.rw))
  else w -. (1.0 /. r) +. (w /. Float.expm1 rw)

let mean t =
  (* Per piece, its share of the mass times its mean, t0 + offset: no
     product or square of the rate, so nothing overflows at steep
     rates. *)
  let acc = ref 0.0 in
  for i = 0 to Array.length t.rates - 1 do
    let t0 = t.breaks.(i) in
    let offset = mean_offset ~rate:t.rates.(i) ~width:(t.breaks.(i + 1) -. t0) in
    acc := !acc +. (t.masses.(i) /. t.z *. (t0 +. offset))
  done;
  !acc
