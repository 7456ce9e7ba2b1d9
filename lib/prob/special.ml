let log_sum_exp xs =
  let m = Array.fold_left max neg_infinity xs in
  if Float.equal m neg_infinity then neg_infinity
  else if Float.equal m infinity then infinity
  else begin
    let acc = ref 0.0 in
    Array.iter (fun x -> acc := !acc +. exp (x -. m)) xs;
    m +. log !acc
  end

(* Lanczos approximation, g = 7, n = 9 coefficients. *)
let lanczos_g = 7.0

let lanczos_coef =
  [| 0.99999999999980993; 676.5203681218851; -1259.1392167224028;
     771.32342877765313; -176.61502916214059; 12.507343278686905;
     -0.13857109526572012; 9.9843695780195716e-6; 1.5056327351493116e-7 |]

let rec log_gamma x =
  if x <= 0.0 then invalid_arg "Special.log_gamma: non-positive argument"
  else if x < 0.5 then
    (* Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x). *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let acc = ref lanczos_coef.(0) in
    for i = 1 to Array.length lanczos_coef - 1 do
      acc := !acc +. (lanczos_coef.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

let log_factorial_table =
  let t = Array.make 32 0.0 in
  for n = 2 to 31 do
    t.(n) <- t.(n - 1) +. log (float_of_int n)
  done;
  t

let log_factorial n =
  if n < 0 then invalid_arg "Special.log_factorial: negative argument"
  else if n < 32 then log_factorial_table.(n)
  else log_gamma (float_of_int n +. 1.0)

(* erfc via the continued-fraction-free rational approximation of
   W. J. Cody / Numerical Recipes erfccheb, |error| < 1.2e-7 would be
   too loose; instead use the expansion with the 10-term Chebyshev fit
   refined by one Newton step through the exact derivative. *)
let erfc_raw x =
  (* Numerical Recipes "erfc" Chebyshev-like fit; accurate to 1.2e-7. *)
  let z = Float.abs x in
  let t = 2.0 /. (2.0 +. z) in
  let ty = (4.0 *. t) -. 2.0 in
  let cof =
    [| -1.3026537197817094; 6.4196979235649026e-1; 1.9476473204185836e-2;
       -9.561514786808631e-3; -9.46595344482036e-4; 3.66839497852761e-4;
       4.2523324806907e-5; -2.0278578112534e-5; -1.624290004647e-6;
       1.303655835580e-6; 1.5626441722e-8; -8.5238095915e-8;
       6.529054439e-9; 5.059343495e-9; -9.91364156e-10; -2.27365122e-10;
       9.6467911e-11; 2.394038e-12; -6.886027e-12; 8.94487e-13;
       3.13092e-13; -1.12708e-13; 3.81e-16; 7.106e-15 |]
  in
  let d = ref 0.0 and dd = ref 0.0 in
  for j = Array.length cof - 1 downto 1 do
    let tmp = !d in
    d := (ty *. !d) -. !dd +. cof.(j);
    dd := tmp
  done;
  let ans = t *. exp ((-.z *. z) +. (0.5 *. (cof.(0) +. (ty *. !d))) -. !dd) in
  if x >= 0.0 then ans else 2.0 -. ans

let erfc x = erfc_raw x

let sqrt2 = sqrt 2.0

let std_normal_cdf x = 0.5 *. erfc (-.x /. sqrt2)

(* Acklam's inverse normal CDF approximation + one Halley refinement. *)
let std_normal_quantile p =
  if not (p > 0.0 && p < 1.0) then
    invalid_arg "Special.std_normal_quantile: argument outside (0,1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  and b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  and c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  and d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then begin
      let q = sqrt (-2.0 *. log p) in
      (((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
      +. c.(5)
      |> fun num ->
      num /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
    end
    else if p <= 1.0 -. p_low then begin
      let q = p -. 0.5 in
      let r = q *. q in
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r
      +. a.(5))
      *. q
      /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r
         +. 1.0)
    end
    else begin
      let q = sqrt (-2.0 *. log (1.0 -. p)) in
      -.((((((c.(0) *. q) +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q
         +. c.(5))
      /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
    end
  in
  (* One Halley step against the exact CDF. *)
  let e = std_normal_cdf x -. p in
  let u = e *. sqrt (2.0 *. Float.pi) *. exp (x *. x /. 2.0) in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))

let lower_incomplete_gamma_regularized a x =
  if a <= 0.0 then invalid_arg "Special.lower_incomplete_gamma: a <= 0";
  if x < 0.0 then invalid_arg "Special.lower_incomplete_gamma: x < 0";
  if Float.equal x 0.0 then 0.0
  else if x < a +. 1.0 then begin
    (* Series representation. *)
    let rec loop ap sum del n =
      if n > 500 then sum
      else
        let ap = ap +. 1.0 in
        let del = del *. x /. ap in
        let sum = sum +. del in
        if Float.abs del < Float.abs sum *. 1e-15 then sum else loop ap sum del (n + 1)
    in
    let sum0 = 1.0 /. a in
    let sum = loop a sum0 sum0 0 in
    sum *. exp ((-.x) +. (a *. log x) -. log_gamma a)
  end
  else begin
    (* Continued fraction (modified Lentz) for Q(a,x). *)
    let fpmin = 1e-300 in
    let b = ref (x +. 1.0 -. a) in
    let c = ref (1.0 /. fpmin) in
    let d = ref (1.0 /. !b) in
    let h = ref !d in
    (try
       for i = 1 to 500 do
         let an = -.float_of_int i *. (float_of_int i -. a) in
         b := !b +. 2.0;
         d := (an *. !d) +. !b;
         if Float.abs !d < fpmin then d := fpmin;
         c := !b +. (an /. !c);
         if Float.abs !c < fpmin then c := fpmin;
         d := 1.0 /. !d;
         let del = !d *. !c in
         h := !h *. del;
         if Float.abs (del -. 1.0) < 1e-15 then raise Exit
       done
     with Exit -> ());
    let q = exp ((-.x) +. (a *. log x) -. log_gamma a) *. !h in
    1.0 -. q
  end

let rec digamma x =
  if x <= 0.0 then invalid_arg "Special.digamma: non-positive argument"
  else if x < 12.0 then digamma (x +. 1.0) -. (1.0 /. x)
  else begin
    (* asymptotic expansion: ln x - 1/2x - 1/12x^2 + 1/120x^4 - 1/252x^6 *)
    let inv = 1.0 /. x in
    let inv2 = inv *. inv in
    log x -. (0.5 *. inv)
    -. (inv2 *. (1.0 /. 12.0 -. (inv2 *. (1.0 /. 120.0 -. (inv2 /. 252.0)))))
  end

let rec trigamma x =
  if x <= 0.0 then invalid_arg "Special.trigamma: non-positive argument"
  else if x < 12.0 then trigamma (x +. 1.0) +. (1.0 /. (x *. x))
  else begin
    (* asymptotic: 1/x + 1/2x^2 + 1/6x^3 - 1/30x^5 + 1/42x^7 *)
    let inv = 1.0 /. x in
    let inv2 = inv *. inv in
    inv +. (0.5 *. inv2)
    +. (inv *. inv2
       *. (1.0 /. 6.0 -. (inv2 *. (1.0 /. 30.0 -. (inv2 /. 42.0)))))
  end
