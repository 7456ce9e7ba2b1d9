type t =
  | Exponential of float
  | Uniform of float * float
  | Gamma of float * float
  | Erlang of int * float
  | Normal of float * float
  | Lognormal of float * float
  | Deterministic of float
  | Pareto of float * float
  | Hyperexponential of (float * float) array
  | Truncated_exponential of float * float

let validate d =
  let check cond msg = if cond then Ok () else Error msg in
  match d with
  | Exponential rate -> check (rate > 0.0) "Exponential: rate must be > 0"
  | Uniform (lo, hi) -> check (lo < hi) "Uniform: requires lo < hi"
  | Gamma (shape, rate) ->
      check (shape > 0.0 && rate > 0.0) "Gamma: shape and rate must be > 0"
  | Erlang (k, rate) -> check (k >= 1 && rate > 0.0) "Erlang: k >= 1 and rate > 0"
  | Normal (_, sd) -> check (sd > 0.0) "Normal: stddev must be > 0"
  | Lognormal (_, sigma) -> check (sigma > 0.0) "Lognormal: sigma must be > 0"
  | Deterministic _ -> Ok ()
  | Pareto (scale, shape) ->
      check (scale > 0.0 && shape > 0.0) "Pareto: scale and shape must be > 0"
  | Hyperexponential branches ->
      if Array.length branches = 0 then Error "Hyperexponential: empty mixture"
      else if Array.exists (fun (p, r) -> p < 0.0 || r <= 0.0) branches then
        Error "Hyperexponential: weights must be >= 0 and rates > 0"
      else if Array.for_all (fun (p, _) -> Float.equal p 0.0) branches then
        Error "Hyperexponential: all weights zero"
      else Ok ()
  | Truncated_exponential (_, width) ->
      check (width > 0.0) "Truncated_exponential: width must be > 0"

let hyper_weights branches =
  let total = Array.fold_left (fun acc (p, _) -> acc +. p) 0.0 branches in
  Array.map (fun (p, r) -> (p /. total, r)) branches

let sample_exponential rng rate = -.log (Rng.float_pos rng) /. rate

(* Polar (Marsaglia) method for the standard normal. *)
let rec sample_std_normal rng =
  let u = Rng.float_range rng (-1.0) 1.0 in
  let v = Rng.float_range rng (-1.0) 1.0 in
  let s = (u *. u) +. (v *. v) in
  if s >= 1.0 || Float.equal s 0.0 then sample_std_normal rng
  else u *. sqrt (-2.0 *. log s /. s)

(* Marsaglia–Tsang for Gamma(shape >= 1, 1); boosted for shape < 1. *)
let rec sample_gamma_std rng shape =
  if shape < 1.0 then
    let u = Rng.float_pos rng in
    sample_gamma_std rng (shape +. 1.0) *. (u ** (1.0 /. shape))
  else begin
    let d = shape -. (1.0 /. 3.0) in
    let c = 1.0 /. sqrt (9.0 *. d) in
    let rec loop () =
      let x = sample_std_normal rng in
      let v = 1.0 +. (c *. x) in
      if v <= 0.0 then loop ()
      else begin
        let v = v *. v *. v in
        let u = Rng.float_pos rng in
        let x2 = x *. x in
        if u < 1.0 -. (0.0331 *. x2 *. x2) then d *. v
        else if log u < (0.5 *. x2) +. (d *. (1.0 -. v +. log v)) then d *. v
        else loop ()
      end
    in
    loop ()
  end

(* Inverse-CDF sampling of the truncated exponential on [0, width]
   with (possibly negative or zero) rate, via expm1 for stability. *)
let sample_trunc_exp rng rate width =
  let u = Rng.float_unit rng in
  if Float.abs rate *. width < 1e-12 then u *. width
  else
    let x = -.Float.log1p (u *. Float.expm1 (-.rate *. width)) /. rate in
    Float.max 0.0 (Float.min width x)

let sample rng d =
  match d with
  | Exponential rate -> sample_exponential rng rate
  | Uniform (lo, hi) -> Rng.float_range rng lo hi
  | Gamma (shape, rate) -> sample_gamma_std rng shape /. rate
  | Erlang (k, rate) ->
      let acc = ref 0.0 in
      for _ = 1 to k do
        acc := !acc +. sample_exponential rng rate
      done;
      !acc
  | Normal (mu, sd) -> mu +. (sd *. sample_std_normal rng)
  | Lognormal (mu, sigma) -> exp (mu +. (sigma *. sample_std_normal rng))
  | Deterministic c -> c
  | Pareto (scale, shape) -> scale /. (Rng.float_pos rng ** (1.0 /. shape))
  | Hyperexponential branches ->
      let w = Array.map fst branches in
      let i = Rng.categorical rng w in
      sample_exponential rng (snd branches.(i))
  | Truncated_exponential (rate, width) -> sample_trunc_exp rng rate width

let log_pdf d x =
  match d with
  | Exponential rate -> if x < 0.0 then neg_infinity else log rate -. (rate *. x)
  | Uniform (lo, hi) -> if x < lo || x > hi then neg_infinity else -.log (hi -. lo)
  | Gamma (shape, rate) ->
      if x <= 0.0 then neg_infinity
      else
        (shape *. log rate) +. ((shape -. 1.0) *. log x) -. (rate *. x)
        -. Special.log_gamma shape
  | Erlang (k, rate) ->
      let shape = float_of_int k in
      if x <= 0.0 then neg_infinity
      else
        (shape *. log rate) +. ((shape -. 1.0) *. log x) -. (rate *. x)
        -. Special.log_factorial (k - 1)
  | Normal (mu, sd) ->
      let z = (x -. mu) /. sd in
      (-0.5 *. z *. z) -. log sd -. (0.5 *. log (2.0 *. Float.pi))
  | Lognormal (mu, sigma) ->
      if x <= 0.0 then neg_infinity
      else
        let z = (log x -. mu) /. sigma in
        (-0.5 *. z *. z) -. log x -. log sigma -. (0.5 *. log (2.0 *. Float.pi))
  | Deterministic c -> if x = c then 0.0 else neg_infinity
  | Pareto (scale, shape) ->
      if x < scale then neg_infinity
      else log shape +. (shape *. log scale) -. ((shape +. 1.0) *. log x)
  | Hyperexponential branches ->
      if x < 0.0 then neg_infinity
      else
        let w = hyper_weights branches in
        Special.log_sum_exp
          (Array.map (fun (p, r) -> log p +. log r -. (r *. x)) w)
  | Truncated_exponential (rate, width) ->
      if x < 0.0 || x > width then neg_infinity
      else if Float.abs rate *. width < 1e-12 then -.log width
      else
        (* density rate e^{-rate x} / (1 - e^{-rate width}); the
           normalizer is written with expm1 so negative rates work. *)
        -.(rate *. x) +. log (Float.abs rate) -. log (Float.abs (Float.expm1 (-.rate *. width)))

let cdf d x =
  match d with
  | Exponential rate -> if x <= 0.0 then 0.0 else -.Float.expm1 (-.rate *. x)
  | Uniform (lo, hi) ->
      if x <= lo then 0.0 else if x >= hi then 1.0 else (x -. lo) /. (hi -. lo)
  | Gamma (shape, rate) ->
      if x <= 0.0 then 0.0
      else Special.lower_incomplete_gamma_regularized shape (rate *. x)
  | Erlang (k, rate) ->
      if x <= 0.0 then 0.0
      else Special.lower_incomplete_gamma_regularized (float_of_int k) (rate *. x)
  | Normal (mu, sd) -> Special.std_normal_cdf ((x -. mu) /. sd)
  | Lognormal (mu, sigma) ->
      if x <= 0.0 then 0.0 else Special.std_normal_cdf ((log x -. mu) /. sigma)
  | Deterministic c -> if x < c then 0.0 else 1.0
  | Pareto (scale, shape) ->
      if x <= scale then 0.0 else 1.0 -. ((scale /. x) ** shape)
  | Hyperexponential branches ->
      if x <= 0.0 then 0.0
      else
        let w = hyper_weights branches in
        Array.fold_left (fun acc (p, r) -> acc -. (p *. Float.expm1 (-.r *. x))) 0.0 w
  | Truncated_exponential (rate, width) ->
      if x <= 0.0 then 0.0
      else if x >= width then 1.0
      else if Float.abs rate *. width < 1e-12 then x /. width
      else Float.expm1 (-.rate *. x) /. Float.expm1 (-.rate *. width)

let quantile_bisect d p lo0 hi0 =
  (* Monotone bisection of the cdf; used where no closed form exists. *)
  let rec widen hi n =
    if n > 200 || cdf d hi >= p then hi else widen (hi *. 2.0) (n + 1)
  in
  let hi0 = widen hi0 0 in
  let rec widen_lo lo n =
    if n > 200 || cdf d lo <= p then lo
    else widen_lo (if lo > 0.0 then lo /. 2.0 else lo *. 2.0 -. 1.0) (n + 1)
  in
  let lo0 = widen_lo lo0 0 in
  let rec loop lo hi n =
    if n = 0 then 0.5 *. (lo +. hi)
    else
      let mid = 0.5 *. (lo +. hi) in
      if cdf d mid < p then loop mid hi (n - 1) else loop lo mid (n - 1)
  in
  loop lo0 hi0 200

let quantile d p =
  if p < 0.0 || p > 1.0 || Float.is_nan p then
    invalid_arg "Distributions.quantile: p outside [0,1]";
  match d with
  | Exponential rate ->
      if Float.equal p 1.0 then infinity else -.Float.log1p (-.p) /. rate
  | Uniform (lo, hi) -> lo +. (p *. (hi -. lo))
  | Deterministic c -> c
  | Normal (mu, sd) ->
      if Float.equal p 0.0 then neg_infinity
      else if Float.equal p 1.0 then infinity
      else mu +. (sd *. Special.std_normal_quantile p)
  | Lognormal (mu, sigma) ->
      if Float.equal p 0.0 then 0.0
      else if Float.equal p 1.0 then infinity
      else exp (mu +. (sigma *. Special.std_normal_quantile p))
  | Pareto (scale, shape) ->
      if Float.equal p 1.0 then infinity else scale /. ((1.0 -. p) ** (1.0 /. shape))
  | Truncated_exponential (rate, width) ->
      if Float.abs rate *. width < 1e-12 then p *. width
      else -.Float.log1p (p *. Float.expm1 (-.rate *. width)) /. rate
  | Gamma (shape, rate) ->
      if Float.equal p 0.0 then 0.0
      else if Float.equal p 1.0 then infinity
      else quantile_bisect d p 0.0 (2.0 *. (shape +. 4.0) /. rate)
  | Erlang (k, rate) ->
      if Float.equal p 0.0 then 0.0
      else if Float.equal p 1.0 then infinity
      else quantile_bisect d p 0.0 (2.0 *. (float_of_int k +. 4.0) /. rate)
  | Hyperexponential branches ->
      if Float.equal p 0.0 then 0.0
      else if Float.equal p 1.0 then infinity
      else
        let slowest =
          Array.fold_left (fun acc (_, r) -> Float.min acc r) infinity branches
        in
        quantile_bisect d p 0.0 (8.0 /. slowest)

let mean d =
  match d with
  | Exponential rate -> 1.0 /. rate
  | Uniform (lo, hi) -> 0.5 *. (lo +. hi)
  | Gamma (shape, rate) -> shape /. rate
  | Erlang (k, rate) -> float_of_int k /. rate
  | Normal (mu, _) -> mu
  | Lognormal (mu, sigma) -> exp (mu +. (0.5 *. sigma *. sigma))
  | Deterministic c -> c
  | Pareto (scale, shape) ->
      if shape <= 1.0 then nan else shape *. scale /. (shape -. 1.0)
  | Hyperexponential branches ->
      let w = hyper_weights branches in
      Array.fold_left (fun acc (p, r) -> acc +. (p /. r)) 0.0 w
  | Truncated_exponential (rate, width) ->
      if Float.abs rate *. width < 1e-12 then 0.5 *. width
      else (1.0 /. rate) -. (width /. Float.expm1 (rate *. width))

let variance d =
  match d with
  | Exponential rate -> 1.0 /. (rate *. rate)
  | Uniform (lo, hi) -> (hi -. lo) ** 2.0 /. 12.0
  | Gamma (shape, rate) -> shape /. (rate *. rate)
  | Erlang (k, rate) -> float_of_int k /. (rate *. rate)
  | Normal (_, sd) -> sd *. sd
  | Lognormal (mu, sigma) ->
      let s2 = sigma *. sigma in
      (Float.expm1 s2) *. exp ((2.0 *. mu) +. s2)
  | Deterministic _ -> 0.0
  | Pareto (scale, shape) ->
      if shape <= 2.0 then (if shape <= 1.0 then nan else infinity)
      else
        scale *. scale *. shape
        /. (((shape -. 1.0) ** 2.0) *. (shape -. 2.0))
  | Hyperexponential branches ->
      let w = hyper_weights branches in
      let second =
        Array.fold_left (fun acc (p, r) -> acc +. (2.0 *. p /. (r *. r))) 0.0 w
      in
      let m = mean d in
      second -. (m *. m)
  | Truncated_exponential _ ->
      (* E[X^2] by the closed form for the doubly-truncated exponential:
         fall back to the identity Var = E[X^2] - mean^2 computed via
         integration by parts. *)
      let m = mean d in
      (match d with
       | Truncated_exponential (rate, width) ->
           if Float.abs rate *. width < 1e-12 then width *. width /. 12.0
           else
             let z = -.Float.expm1 (-.rate *. width) in
             let ex2 =
               (2.0 /. (rate *. rate))
               -. ((width *. width +. (2.0 *. width /. rate)) *. exp (-.rate *. width) /. z)
             in
             ex2 -. (m *. m)
       | _ -> assert false)

let squared_cv d =
  let m = mean d in
  variance d /. (m *. m)

let pp ppf d =
  match d with
  | Exponential r -> Format.fprintf ppf "Exp(rate=%g)" r
  | Uniform (lo, hi) -> Format.fprintf ppf "Unif[%g,%g]" lo hi
  | Gamma (k, r) -> Format.fprintf ppf "Gamma(shape=%g,rate=%g)" k r
  | Erlang (k, r) -> Format.fprintf ppf "Erlang(k=%d,rate=%g)" k r
  | Normal (mu, sd) -> Format.fprintf ppf "Normal(%g,%g)" mu sd
  | Lognormal (mu, s) -> Format.fprintf ppf "Lognormal(%g,%g)" mu s
  | Deterministic c -> Format.fprintf ppf "Det(%g)" c
  | Pareto (s, a) -> Format.fprintf ppf "Pareto(scale=%g,shape=%g)" s a
  | Hyperexponential bs ->
      Format.fprintf ppf "HyperExp(%a)"
        (Format.pp_print_array
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
           (fun ppf (p, r) -> Format.fprintf ppf "%g:%g" p r))
        bs
  | Truncated_exponential (r, w) -> Format.fprintf ppf "TrExp(rate=%g,width=%g)" r w
