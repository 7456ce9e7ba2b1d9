(* Tests for the probability substrate: RNG, special functions,
   distributions, the piecewise-exponential sampler, statistics. *)

module Rng = Qnet_prob.Rng
module Special = Qnet_prob.Special
module D = Qnet_prob.Distributions
module Piecewise = Qnet_prob.Piecewise
module Stats = Qnet_prob.Statistics
module Quad = Quadrature

let check_close ?(eps = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g (diff %.3g)" name expected actual
      (Float.abs (expected -. actual))

let check_rel ?(eps = 1e-6) ?(floor = 1e-30) name expected actual =
  let denom = Float.max (Float.abs expected) floor in
  if Float.abs (expected -. actual) /. denom > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g (rel %.3g)" name expected actual
      (Float.abs (expected -. actual) /. denom)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 () and b = Rng.create ~seed:7 () in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 () and b = Rng.create ~seed:2 () in
  let equal = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr equal
  done;
  Alcotest.(check bool) "different seeds diverge" true (!equal < 4)

let test_rng_copy_independent () =
  let a = Rng.create ~seed:3 () in
  let _ = Rng.bits64 a in
  let b = Rng.copy a in
  let xa = Rng.bits64 a in
  let xb = Rng.bits64 b in
  Alcotest.(check int64) "copy resumes at same point" xa xb;
  (* advancing a further must not affect b *)
  let _ = Rng.bits64 a in
  let xa2 = Rng.bits64 a and xb2 = Rng.bits64 b in
  Alcotest.(check bool) "streams independent after copy" true (xa2 <> xb2 || xa2 = xb2)

let test_rng_split_diverges () =
  let a = Rng.create ~seed:5 () in
  let b = Rng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.bits64 a = Rng.bits64 b then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_float_unit_range () =
  let rng = Rng.create ~seed:11 () in
  for _ = 1 to 10_000 do
    let x = Rng.float_unit rng in
    if not (x >= 0.0 && x < 1.0) then Alcotest.failf "float_unit out of range: %g" x
  done

let test_float_pos_range () =
  let rng = Rng.create ~seed:12 () in
  for _ = 1 to 10_000 do
    let x = Rng.float_pos rng in
    if not (x > 0.0 && x <= 1.0) then Alcotest.failf "float_pos out of range: %g" x
  done

let test_float_unit_mean () =
  let rng = Rng.create ~seed:13 () in
  let n = 100_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Rng.float_unit rng
  done;
  check_close ~eps:0.01 "uniform mean" 0.5 (!acc /. float_of_int n)

let test_int_bounds () =
  let rng = Rng.create ~seed:14 () in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    if x < 0 || x >= 7 then Alcotest.failf "int out of range: %d" x
  done

let test_int_uniformity () =
  let rng = Rng.create ~seed:15 () in
  let counts = Array.make 5 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let x = Rng.int rng 5 in
    counts.(x) <- counts.(x) + 1
  done;
  Array.iteri
    (fun i c ->
      let freq = float_of_int c /. float_of_int n in
      if Float.abs (freq -. 0.2) > 0.01 then
        Alcotest.failf "bucket %d frequency %.4f too far from 0.2" i freq)
    counts

let test_int_rejects_nonpositive () =
  let rng = Rng.create () in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

(* Golden stream: the first outputs of a fixed seed and the state after
   them, pinned bit for bit so a change to the generator's
   representation cannot alter any seeded chain. The bound 2^61 + 1
   rejects about half the raw draws (two of the six here). *)
let test_rng_golden_stream () =
  let rng = Rng.create ~seed:20240 () in
  let bits = List.init 4 (fun _ -> Rng.bits64 rng) in
  let floats = List.init 4 (fun _ -> Int64.bits_of_float (Rng.float_unit rng)) in
  let ints =
    List.map (Rng.int rng)
      ([ 1; 2; 7; 1000; 1 lsl 40 ] @ List.init 6 (fun _ -> (1 lsl 61) + 1))
  in
  let pos = Int64.bits_of_float (Rng.float_pos rng) in
  let shuffled = Array.init 10 Fun.id in
  Rng.shuffle_in_place rng shuffled;
  Alcotest.(check (list int64)) "bits64"
    [ 0x74365ed98e37c276L; 0x2f81f8e7c578e4f9L; 0xd5a23fde4456a7f3L; 0xacfdccacd11f98daL ]
    bits;
  Alcotest.(check (list int64)) "float_unit bits"
    [ 0x3fee49ffaf537616L; 0x3fc3bf95f9875320L; 0x3fe179c4d7f9211cL; 0x3fe415ff0f17fcbfL ]
    floats;
  Alcotest.(check (list int)) "int"
    [ 0; 0; 5; 354; 951563038202; 1282640472110920516; 1087806395542890999;
      890134953775620647; 279635190302988754; 1025397012135024156; 952293077652101103 ]
    ints;
  Alcotest.(check int64) "float_pos bits" 0x3fe0f7fd1093bc90L pos;
  Alcotest.(check (array int)) "shuffle" [| 3; 4; 8; 6; 5; 2; 9; 7; 0; 1 |] shuffled;
  Alcotest.(check (array int64)) "state after"
    [| 0xf145cf884edeab37L; 0xd57f141f0954e9b1L; 0x2357c1bfffd1f9bL; 0xdc5bb829aa12d225L |]
    (Rng.state rng)

(* The int-returning draws keep the generator's words unboxed:
   thousands of them allocate nothing beyond the measurement itself. *)
let test_rng_int_draws_allocate_nothing () =
  let rng = Rng.create ~seed:21 () in
  let a = Array.init 64 Fun.id in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to 1000 do
    acc := !acc lxor Rng.bits53 rng lxor Rng.int rng 1000;
    Rng.shuffle_in_place rng a
  done;
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !acc);
  if words > 16.0 then
    Alcotest.failf "%.0f words allocated by 65,000 int draws" words

let test_shuffle_permutation () =
  let rng = Rng.create ~seed:16 () in
  let a = Array.init 50 Fun.id in
  Rng.shuffle_in_place rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Rng.create ~seed:17 () in
  for _ = 1 to 100 do
    let l = Rng.sample_without_replacement rng 5 20 in
    Alcotest.(check int) "size" 5 (List.length l);
    Alcotest.(check bool) "sorted distinct" true (List.sort_uniq compare l = l);
    List.iter (fun x -> Alcotest.(check bool) "in range" true (x >= 0 && x < 20)) l
  done

let test_sample_without_replacement_all () =
  let rng = Rng.create ~seed:18 () in
  let l = Rng.sample_without_replacement rng 10 10 in
  Alcotest.(check (list int)) "k = n selects everything" (List.init 10 Fun.id) l

let test_sample_without_replacement_uniform () =
  let rng = Rng.create ~seed:19 () in
  let counts = Array.make 10 0 in
  let n = 20_000 in
  for _ = 1 to n do
    List.iter (fun i -> counts.(i) <- counts.(i) + 1) (Rng.sample_without_replacement rng 3 10)
  done;
  Array.iteri
    (fun i c ->
      let freq = float_of_int c /. float_of_int n in
      if Float.abs (freq -. 0.3) > 0.02 then
        Alcotest.failf "index %d frequency %.4f too far from 0.3" i freq)
    counts

let test_categorical_frequencies () =
  let rng = Rng.create ~seed:20 () in
  let w = [| 1.0; 2.0; 3.0; 4.0 |] in
  let counts = Array.make 4 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let i = Rng.categorical rng w in
    counts.(i) <- counts.(i) + 1
  done;
  Array.iteri
    (fun i c ->
      let freq = float_of_int c /. float_of_int n in
      let expect = w.(i) /. 10.0 in
      if Float.abs (freq -. expect) > 0.01 then
        Alcotest.failf "weight %d freq %.4f vs %.4f" i freq expect)
    counts

let test_categorical_zero_weights () =
  let rng = Rng.create ~seed:21 () in
  for _ = 1 to 1000 do
    let i = Rng.categorical rng [| 0.0; 1.0; 0.0 |] in
    Alcotest.(check int) "only positive weight wins" 1 i
  done

let test_categorical_rejects_all_zero () =
  let rng = Rng.create () in
  Alcotest.check_raises "all zero"
    (Invalid_argument "Rng.categorical: no positive weight") (fun () ->
      ignore (Rng.categorical rng [| 0.0; 0.0 |]))

(* ------------------------------------------------------------------ *)
(* Special functions *)

let test_log_sum_exp () =
  check_rel "lse array"
    (log (exp 0.5 +. exp 1.5 +. exp (-0.5)))
    (Special.log_sum_exp [| 0.5; 1.5; -0.5 |]);
  check_close "lse empty" neg_infinity (Special.log_sum_exp [||]);
  check_rel "lse huge" (-1000.0 +. log 3.0)
    (Special.log_sum_exp [| -1000.0; -1000.0; -1000.0 |])

let test_log_gamma_known_values () =
  check_rel "gamma(1)" 1.0 (exp (Special.log_gamma 1.0));
  check_rel "gamma(2)" 1.0 (exp (Special.log_gamma 2.0));
  check_rel ~eps:1e-10 "gamma(5) = 24" (log 24.0) (Special.log_gamma 5.0);
  check_rel ~eps:1e-10 "gamma(0.5) = sqrt pi"
    (0.5 *. log Float.pi)
    (Special.log_gamma 0.5);
  (* recurrence Gamma(x+1) = x Gamma(x) *)
  let x = 3.7 in
  check_rel ~eps:1e-10 "recurrence"
    (Special.log_gamma x +. log x)
    (Special.log_gamma (x +. 1.0))

let test_log_factorial () =
  check_close "0!" 0.0 (Special.log_factorial 0);
  check_close "1!" 0.0 (Special.log_factorial 1);
  check_rel "10!" (log 3628800.0) (Special.log_factorial 10);
  check_rel ~eps:1e-10 "50! matches log_gamma" (Special.log_gamma 51.0)
    (Special.log_factorial 50)

let test_erfc_tail () =
  (* erfc(x) ~ exp(-x^2)/(x sqrt pi) for large x; check positivity and
     monotone decay where naive 1 - erf underflows *)
  let e5 = Special.erfc 5.0 in
  check_rel ~eps:1e-5 "erfc(5)" 1.5374597944280351e-12 e5;
  Alcotest.(check bool) "erfc decreasing" true (Special.erfc 6.0 < e5)

let test_std_normal_cdf () =
  check_close ~eps:1e-9 "Phi(0)" 0.5 (Special.std_normal_cdf 0.0);
  check_rel ~eps:1e-6 "Phi(1.96)" 0.9750021048517795 (Special.std_normal_cdf 1.96);
  check_rel ~eps:1e-6 "Phi(-1)" 0.15865525393145707 (Special.std_normal_cdf (-1.0))

let test_std_normal_quantile_roundtrip () =
  List.iter
    (fun p ->
      let x = Special.std_normal_quantile p in
      check_close ~eps:1e-9 (Printf.sprintf "roundtrip p=%g" p) p
        (Special.std_normal_cdf x))
    [ 0.001; 0.025; 0.2; 0.5; 0.8; 0.975; 0.999 ]

let test_incomplete_gamma () =
  (* P(1, x) = 1 - e^-x *)
  List.iter
    (fun x ->
      check_rel ~eps:1e-10
        (Printf.sprintf "P(1,%g)" x)
        (1.0 -. exp (-.x))
        (Special.lower_incomplete_gamma_regularized 1.0 x))
    [ 0.1; 1.0; 3.0; 10.0 ];
  (* P(2, x) = 1 - e^-x (1 + x) *)
  List.iter
    (fun x ->
      check_rel ~eps:1e-10
        (Printf.sprintf "P(2,%g)" x)
        (1.0 -. (exp (-.x) *. (1.0 +. x)))
        (Special.lower_incomplete_gamma_regularized 2.0 x))
    [ 0.5; 2.0; 8.0 ];
  check_close "P(a,0)" 0.0 (Special.lower_incomplete_gamma_regularized 3.0 0.0)

(* ------------------------------------------------------------------ *)
(* Distributions *)

let sample_many rng d n = Array.init n (fun _ -> D.sample rng d)

let test_dist_validate () =
  let bad =
    [
      D.Exponential 0.0;
      D.Exponential (-1.0);
      D.Uniform (2.0, 1.0);
      D.Gamma (0.0, 1.0);
      D.Erlang (0, 1.0);
      D.Normal (0.0, 0.0);
      D.Lognormal (0.0, -1.0);
      D.Pareto (0.0, 1.0);
      D.Hyperexponential [||];
      D.Hyperexponential [| (0.0, 1.0) |];
      D.Truncated_exponential (1.0, 0.0);
    ]
  in
  List.iter
    (fun d ->
      match D.validate d with
      | Error _ -> ()
      | Ok () -> Alcotest.failf "expected validation failure: %s" (Format.asprintf "%a" D.pp d))
    bad;
  let good =
    [
      D.Exponential 2.0;
      D.Uniform (0.0, 1.0);
      D.Gamma (2.5, 3.0);
      D.Erlang (3, 2.0);
      D.Normal (1.0, 2.0);
      D.Lognormal (0.0, 0.5);
      D.Deterministic 4.0;
      D.Pareto (1.0, 2.5);
      D.Hyperexponential [| (0.5, 1.0); (0.5, 10.0) |];
      D.Truncated_exponential (-3.0, 2.0);
    ]
  in
  List.iter
    (fun d ->
      match D.validate d with
      | Ok () -> ()
      | Error m -> Alcotest.failf "unexpected validation failure: %s" m)
    good

let test_sample_moments d name eps =
  let rng = Rng.create ~seed:31 () in
  let n = 200_000 in
  let xs = sample_many rng d n in
  let sample_mean = Stats.mean xs in
  let sample_var = Stats.variance xs in
  check_rel ~eps (name ^ " mean") (D.mean d) sample_mean;
  check_rel ~eps:(3.0 *. eps) (name ^ " variance") (D.variance d) sample_var

let test_exponential_moments () = test_sample_moments (D.Exponential 4.0) "exp" 0.02
let test_uniform_moments () = test_sample_moments (D.Uniform (2.0, 5.0)) "unif" 0.02
let test_gamma_moments () = test_sample_moments (D.Gamma (2.5, 3.0)) "gamma" 0.02
let test_gamma_small_shape_moments () = test_sample_moments (D.Gamma (0.4, 1.0)) "gamma<1" 0.03
let test_erlang_moments () = test_sample_moments (D.Erlang (4, 8.0)) "erlang" 0.02
let test_normal_moments () = test_sample_moments (D.Normal (3.0, 1.5)) "normal" 0.02
let test_lognormal_moments () = test_sample_moments (D.Lognormal (0.2, 0.4)) "lognorm" 0.02

let test_hyperexp_moments () =
  test_sample_moments (D.Hyperexponential [| (0.7, 2.0); (0.3, 0.5) |]) "hyperexp" 0.03

let test_trunc_exp_moments () =
  test_sample_moments (D.Truncated_exponential (2.0, 1.5)) "trexp" 0.02;
  test_sample_moments (D.Truncated_exponential (-2.0, 1.5)) "trexp-neg" 0.02

let test_deterministic () =
  let rng = Rng.create () in
  let d = D.Deterministic 3.5 in
  Alcotest.(check (float 0.0)) "sample" 3.5 (D.sample rng d);
  Alcotest.(check (float 0.0)) "mean" 3.5 (D.mean d);
  Alcotest.(check (float 0.0)) "variance" 0.0 (D.variance d);
  Alcotest.(check (float 0.0)) "cdf below" 0.0 (D.cdf d 3.0);
  Alcotest.(check (float 0.0)) "cdf at" 1.0 (D.cdf d 3.5)

let ks_check name d =
  let rng = Rng.create ~seed:37 () in
  let n = 20_000 in
  let xs = sample_many rng d n in
  let ks = Stats.ks_statistic_against xs (D.cdf d) in
  (* 99.9% KS critical value ~ 1.95 / sqrt n *)
  let critical = 1.95 /. sqrt (float_of_int n) in
  if ks > critical then Alcotest.failf "%s: KS %.5f > %.5f" name ks critical

let test_ks_exponential () = ks_check "exp" (D.Exponential 2.5)
let test_ks_gamma () = ks_check "gamma" (D.Gamma (3.2, 1.1))
let test_ks_erlang () = ks_check "erlang" (D.Erlang (3, 5.0))
let test_ks_normal () = ks_check "normal" (D.Normal (-1.0, 2.0))
let test_ks_lognormal () = ks_check "lognormal" (D.Lognormal (0.5, 0.8))
let test_ks_pareto () = ks_check "pareto" (D.Pareto (1.5, 3.0))
let test_ks_uniform () = ks_check "uniform" (D.Uniform (-2.0, 7.0))

let test_ks_hyperexp () =
  ks_check "hyperexp" (D.Hyperexponential [| (0.4, 1.0); (0.6, 6.0) |])

let test_ks_trunc_exp () =
  ks_check "trexp+" (D.Truncated_exponential (3.0, 0.7));
  ks_check "trexp-" (D.Truncated_exponential (-3.0, 0.7));
  ks_check "trexp0" (D.Truncated_exponential (1e-14, 0.7))

let test_quantile_roundtrip () =
  let dists =
    [
      D.Exponential 2.0;
      D.Uniform (1.0, 4.0);
      D.Gamma (2.0, 1.5);
      D.Erlang (3, 2.0);
      D.Normal (0.0, 1.0);
      D.Lognormal (0.1, 0.6);
      D.Pareto (1.0, 2.0);
      D.Hyperexponential [| (0.5, 1.0); (0.5, 5.0) |];
      D.Truncated_exponential (2.0, 3.0);
    ]
  in
  List.iter
    (fun d ->
      List.iter
        (fun p ->
          let x = D.quantile d p in
          check_close ~eps:1e-6
            (Format.asprintf "roundtrip %a p=%g" D.pp d p)
            p (D.cdf d x))
        [ 0.05; 0.3; 0.5; 0.7; 0.95 ])
    dists

let test_pdf_integrates_to_cdf () =
  (* integrate the pdf numerically and compare with the cdf *)
  let dists =
    [
      (D.Exponential 1.5, 0.0, 2.0);
      (D.Gamma (2.0, 2.0), 0.0, 3.0);
      (D.Normal (0.0, 1.0), -3.0, 1.0);
      (D.Lognormal (0.0, 0.5), 1e-9, 2.0);
      (D.Truncated_exponential (2.0, 1.0), 0.0, 0.8);
    ]
  in
  List.iter
    (fun (d, lo, hi) ->
      let integral = Quad.adaptive_simpson (fun x -> exp (D.log_pdf d x)) lo hi in
      check_rel ~eps:1e-6
        (Format.asprintf "pdf integral %a" D.pp d)
        (D.cdf d hi -. D.cdf d lo)
        integral)
    dists

let test_squared_cv () =
  check_rel "exp scv = 1" 1.0 (D.squared_cv (D.Exponential 3.0));
  Alcotest.(check bool) "erlang scv < 1" true (D.squared_cv (D.Erlang (4, 1.0)) < 1.0);
  Alcotest.(check bool) "hyperexp scv > 1" true
    (D.squared_cv (D.Hyperexponential [| (0.9, 10.0); (0.1, 0.2) |]) > 1.0)

(* ------------------------------------------------------------------ *)
(* Piecewise log-linear sampler *)

let compile_simple () =
  Piecewise.compile ~lower:0.0 ~upper:2.0 ~linear:(-1.0) ~hinges:[]

let test_piecewise_simple_exponential () =
  (* density ∝ e^{-x} on [0,2]: cdf known in closed form *)
  let pw = compile_simple () in
  let z = 1.0 -. exp (-2.0) in
  List.iter
    (fun x ->
      check_rel ~eps:1e-10
        (Printf.sprintf "cdf at %g" x)
        ((1.0 -. exp (-.x)) /. z)
        (Piecewise.cdf pw x))
    [ 0.2; 0.7; 1.3; 1.9 ]

let test_piecewise_uniform () =
  let pw = Piecewise.compile ~lower:1.0 ~upper:3.0 ~linear:0.0 ~hinges:[] in
  check_rel ~eps:1e-12 "uniform cdf" 0.25 (Piecewise.cdf pw 1.5);
  check_rel ~eps:1e-10 "uniform mean" 2.0 (Piecewise.mean pw);
  check_rel ~eps:1e-12 "uniform quantile" 2.5 (Piecewise.quantile pw 0.75)

let test_piecewise_hinge_breakpoints () =
  let pw =
    Piecewise.compile ~lower:0.0 ~upper:10.0 ~linear:(-2.0)
      ~hinges:[ { Piecewise.knee = 3.0; slope = 1.5 }; { knee = 7.0; slope = 0.5 } ]
  in
  match Piecewise.pieces pw with
  | [ (a0, b0, r0); (a1, b1, r1); (a2, b2, r2) ] ->
      check_close "piece0 lo" 0.0 a0;
      check_close "piece0 hi" 3.0 b0;
      check_close "piece0 rate" (-2.0) r0;
      check_close "piece1 lo" 3.0 a1;
      check_close "piece1 hi" 7.0 b1;
      check_close "piece1 rate" (-0.5) r1;
      check_close "piece2 lo" 7.0 a2;
      check_close "piece2 hi" 10.0 b2;
      check_close "piece2 rate" 0.0 r2
  | ps -> Alcotest.failf "expected 3 pieces, got %d" (List.length ps)

let test_piecewise_knee_outside () =
  (* knee left of the interval folds into the base slope; right of it
     is dropped *)
  let pw =
    Piecewise.compile ~lower:2.0 ~upper:4.0 ~linear:(-1.0)
      ~hinges:[ { Piecewise.knee = 0.0; slope = 3.0 }; { knee = 9.0; slope = -5.0 } ]
  in
  match Piecewise.pieces pw with
  | [ (_, _, r) ] -> check_close "folded slope" 2.0 r
  | ps -> Alcotest.failf "expected 1 piece, got %d" (List.length ps)

let test_piecewise_density_continuity () =
  let pw =
    Piecewise.compile ~lower:0.0 ~upper:5.0 ~linear:1.0
      ~hinges:[ { Piecewise.knee = 2.0; slope = -3.0 } ]
  in
  let eps = 1e-7 in
  let left = Piecewise.log_density pw (2.0 -. eps) in
  let right = Piecewise.log_density pw (2.0 +. eps) in
  check_close ~eps:1e-5 "continuous at knee" left right

let test_piecewise_normalizer_vs_quadrature () =
  let cases =
    [
      (0.0, 1.0, -2.0, [ { Piecewise.knee = 0.4; slope = 5.0 } ]);
      (0.0, 3.0, 0.0, [ { Piecewise.knee = 1.0; slope = -1.0 }; { knee = 2.0; slope = 2.5 } ]);
      (5.0, 6.0, 100.0, []);
      (0.0, 1.0, -200.0, [ { Piecewise.knee = 0.5; slope = 400.0 } ]);
    ]
  in
  List.iteri
    (fun i (lo, hi, linear, hinges) ->
      let pw = Piecewise.compile ~lower:lo ~upper:hi ~linear ~hinges in
      let log_z = Piecewise.log_normalizer pw in
      let log_z_quad =
        Quad.log_integral_exp (fun x -> Piecewise.log_density pw x) lo hi
      in
      check_rel ~eps:1e-6 (Printf.sprintf "normalizer case %d" i) log_z_quad log_z)
    cases

let test_piecewise_cdf_vs_quadrature () =
  let pw =
    Piecewise.compile ~lower:0.0 ~upper:4.0 ~linear:(-1.5)
      ~hinges:[ { Piecewise.knee = 1.0; slope = 2.0 }; { knee = 2.5; slope = 1.0 } ]
  in
  let log_z = Piecewise.log_normalizer pw in
  List.iter
    (fun x ->
      let log_part =
        Quad.log_integral_exp (fun u -> Piecewise.log_density pw u) 0.0 x
      in
      check_rel ~eps:1e-5
        (Printf.sprintf "cdf(%g) vs quadrature" x)
        (exp (log_part -. log_z))
        (Piecewise.cdf pw x))
    [ 0.5; 1.0; 1.7; 3.0; 3.9 ]

let test_piecewise_quantile_roundtrip () =
  let pw =
    Piecewise.compile ~lower:(-1.0) ~upper:2.0 ~linear:2.0
      ~hinges:[ { Piecewise.knee = 0.0; slope = -4.0 } ]
  in
  List.iter
    (fun p ->
      check_close ~eps:1e-9 (Printf.sprintf "quantile roundtrip %g" p) p
        (Piecewise.cdf pw (Piecewise.quantile pw p)))
    [ 0.01; 0.2; 0.5; 0.77; 0.99 ]

let test_piecewise_sampler_ks () =
  let rng = Rng.create ~seed:55 () in
  let pw =
    Piecewise.compile ~lower:0.0 ~upper:3.0 ~linear:(-2.0)
      ~hinges:[ { Piecewise.knee = 1.0; slope = 3.5 } ]
  in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> Piecewise.sample rng pw) in
  let ks = Stats.ks_statistic_against xs (Piecewise.cdf pw) in
  let critical = 1.95 /. sqrt (float_of_int n) in
  if ks > critical then Alcotest.failf "piecewise sampler KS %.5f > %.5f" ks critical

let test_piecewise_sampler_extreme_rates () =
  (* very steep densities must stay inside the support and near the
     favoured edge *)
  let rng = Rng.create ~seed:56 () in
  let pw = Piecewise.compile ~lower:0.0 ~upper:1.0 ~linear:(-500.0) ~hinges:[] in
  for _ = 1 to 1000 do
    let x = Piecewise.sample rng pw in
    if x < 0.0 || x > 1.0 then Alcotest.failf "sample out of support: %g" x;
    if x > 0.1 then Alcotest.failf "steep-decay sample too far right: %g" x
  done;
  let pw_up = Piecewise.compile ~lower:0.0 ~upper:1.0 ~linear:500.0 ~hinges:[] in
  for _ = 1 to 1000 do
    let x = Piecewise.sample rng pw_up in
    if x < 0.9 then Alcotest.failf "steep-growth sample too far left: %g" x
  done

let test_piecewise_mean_vs_sampling () =
  let rng = Rng.create ~seed:57 () in
  let pw =
    Piecewise.compile ~lower:0.0 ~upper:2.0 ~linear:1.0
      ~hinges:[ { Piecewise.knee = 0.7; slope = -2.5 } ]
  in
  let n = 200_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Piecewise.sample rng pw
  done;
  check_rel ~eps:0.01 "analytic mean matches sampler" (Piecewise.mean pw)
    (!acc /. float_of_int n)

let test_piecewise_degenerate_rejected () =
  Alcotest.check_raises "reversed interval"
    (Invalid_argument "Piecewise.compile: need lower < upper") (fun () ->
      ignore (Piecewise.compile ~lower:1.0 ~upper:1.0 ~linear:0.0 ~hinges:[]))

(* qcheck: random piecewise densities have valid samplers *)
let qcheck_piecewise_sampler_in_support =
  QCheck.Test.make ~name:"piecewise samples stay in support" ~count:200
    QCheck.(
      quad (float_bound_exclusive 10.0) (float_bound_exclusive 5.0)
        (float_range (-20.0) 20.0)
        (list_of_size (Gen.int_bound 3)
           (pair (float_bound_exclusive 10.0) (float_range (-15.0) 15.0))))
    (fun (lo, width, linear, hinge_spec) ->
      let lower = lo and upper = lo +. width +. 0.001 in
      let hinges =
        List.map (fun (pos, slope) -> { Piecewise.knee = lo +. pos; slope }) hinge_spec
      in
      let pw = Piecewise.compile ~lower ~upper ~linear ~hinges in
      let rng = Rng.create ~seed:58 () in
      let ok = ref true in
      for _ = 1 to 20 do
        let x = Piecewise.sample rng pw in
        if x < lower -. 1e-9 || x > upper +. 1e-9 then ok := false
      done;
      !ok)

let qcheck_piecewise_cdf_monotone =
  QCheck.Test.make ~name:"piecewise cdf monotone in [0,1]" ~count:200
    QCheck.(
      pair (float_range (-30.0) 30.0)
        (list_of_size (Gen.int_bound 3)
           (pair (float_bound_exclusive 4.0) (float_range (-25.0) 25.0))))
    (fun (linear, hinge_spec) ->
      let hinges =
        List.map (fun (pos, slope) -> { Piecewise.knee = pos; slope }) hinge_spec
      in
      let pw = Piecewise.compile ~lower:0.0 ~upper:4.0 ~linear ~hinges in
      let xs = List.init 21 (fun i -> 0.2 *. float_of_int i) in
      let cdfs = List.map (Piecewise.cdf pw) xs in
      let rec monotone = function
        | a :: (b :: _ as rest) -> a <= b +. 1e-12 && monotone rest
        | _ -> true
      in
      monotone cdfs
      && List.for_all (fun c -> c >= -1e-12 && c <= 1.0 +. 1e-12) cdfs)

(* The edge cases piecewise.mli promises, against closed forms. On
   [0, w] with slope r the density peaks at 0 when r < 0 and at w when
   r > 0, so log_normalizer is log ((1 - e^{-|r|w}) / |r|), and the
   offset that leaves mass fraction q to its left is
   log1p (q * expm1 (r w)) / r. *)
let closed_log_z r w = log (-.Float.expm1 (-.Float.abs (r *. w)) /. Float.abs r)
let closed_quantile r w q = Float.log1p (q *. Float.expm1 (r *. w)) /. r

(* The mean of e^{-λy} on [0, w] is (1 - (1 + λw) e^{-λw}) / (λ (1 - e^{-λw}));
   a rising piece is its mirror image. *)
let closed_mean r w =
  let lw = Float.abs r *. w in
  let m = (-.Float.expm1 (-.lw) -. (lw *. exp (-.lw))) /. (Float.abs r *. -.Float.expm1 (-.lw)) in
  if r < 0.0 then m else w -. m

let test_piecewise_extreme_rates_closed_form () =
  List.iter
    (fun (r, w) ->
      let name = Printf.sprintf "r %g, w %g" r w in
      let pw = Piecewise.compile ~lower:0.0 ~upper:w ~linear:r ~hinges:[] in
      check_rel ~eps:1e-14 (name ^ ": log_normalizer") (closed_log_z r w)
        (Piecewise.log_normalizer pw);
      check_rel ~eps:1e-14 ~floor:0.0 (name ^ ": mean") (closed_mean r w) (Piecewise.mean pw);
      List.iter
        (fun q ->
          let x = Piecewise.quantile pw q in
          check_rel ~eps:1e-14 ~floor:0.0 (Printf.sprintf "%s: quantile %g" name q)
            (closed_quantile r w q) x;
          check_rel ~eps:1e-13 (Printf.sprintf "%s: cdf at quantile %g" name q) q
            (Piecewise.cdf pw x))
        [ 1e-9; 0.3; 0.5; 0.9 ])
    [ (-1e300, 1.0); (-1e300, 3e-300); (1e300, 1e-299); (1e300, 2e-298); (-1e150, 1e-148);
      (-1e200, 1.0) ]

(* Widths down to the denormal range: |r w| < 1e-12 for any finite r, so
   every piece takes the near-flat branch, mass = w e^{mid-point value}. *)
let test_piecewise_denormal_widths () =
  let d = 0x1p-1074 in
  List.iter
    (fun r ->
      let w = 1000.0 *. d in
      let pw = Piecewise.compile ~lower:0.0 ~upper:w ~linear:r ~hinges:[] in
      let name = Printf.sprintf "r %g" r in
      check_rel ~eps:1e-12 (name ^ ": log_normalizer") (log w) (Piecewise.log_normalizer pw);
      check_close ~eps:0.0 (name ^ ": cdf at w/2") 0.5 (Piecewise.cdf pw (500.0 *. d));
      check_close ~eps:0.0 (name ^ ": quantile 0.25") (250.0 *. d) (Piecewise.quantile pw 0.25))
    [ -1.0; 1.0; -1e300; 1e300 ];
  (* a denormal first piece inside a unit window: a knee 10 steps past
     lower holds ~1e-323 of the mass *)
  let knee = 10.0 *. d in
  let pw =
    Piecewise.compile ~lower:0.0 ~upper:1.0 ~linear:(-2.0)
      ~hinges:[ { Piecewise.knee; slope = 3.0 } ]
  in
  (match Piecewise.pieces pw with
  | [ (_, k, _); _ ] -> check_close ~eps:0.0 "denormal piece kept" knee k
  | ps -> Alcotest.failf "expected 2 pieces, got %d" (List.length ps));
  (* past the knee the slope is 1, and the denormal piece adds ~1e-323:
     log z = log (1 - 1/e) *)
  check_rel ~eps:1e-14 "log_normalizer" (closed_log_z 1.0 1.0) (Piecewise.log_normalizer pw);
  let rng = Rng.create ~seed:59 () in
  for _ = 1 to 1000 do
    let x = Piecewise.sample rng pw in
    if not (x >= 0.0 && x <= 1.0) then Alcotest.failf "sample out of support: %g" x
  done

(* |r w| just below and just above the 1e-12 switch between the near-flat
   branch and the expm1 forms: both sides agree with the closed forms,
   the near-flat draw q w to within its O(r w) error. *)
let test_piecewise_flat_switch () =
  List.iter
    (fun r ->
      List.iter
        (fun rw ->
          let w = Float.abs (rw /. r) in
          let name = Printf.sprintf "r %g, |r w| %.6g" r rw in
          let pw = Piecewise.compile ~lower:0.0 ~upper:w ~linear:r ~hinges:[] in
          check_rel ~eps:1e-15 (name ^ ": log_normalizer") (closed_log_z r w)
            (Piecewise.log_normalizer pw);
          List.iter
            (fun q ->
              check_rel ~eps:1e-12 (Printf.sprintf "%s: quantile %g" name q)
                (closed_quantile r w q) (Piecewise.quantile pw q))
            [ 0x1p-53; 0.25; 0.75 ])
        [ 0.999999e-12; 1.000001e-12 ])
    [ 1.0; -1.0; 1e300; -1e300; 1e-3 ]

(* The log-space arithmetic Piecewise drew with before its masses moved
   to linear space, verbatim, with the three Special helpers it called:
   an oracle for the new masses and draws. *)
module Log_space = struct
  module Special = struct
    let log_sum_exp2 a b =
      if Float.equal a neg_infinity then b
      else if Float.equal b neg_infinity then a
      else if a >= b then a +. Float.log1p (exp (b -. a))
      else b +. Float.log1p (exp (a -. b))

    let log_half = -0.6931471805599453

    let log1mexp x =
      if x > 0.0 then invalid_arg "Special.log1mexp: positive argument"
      else if Float.equal x 0.0 then neg_infinity
      else if x > log_half then log (-.Float.expm1 x)
      else Float.log1p (-.exp x)

    let log_expm1 x =
      if x <= 0.0 then invalid_arg "Special.log_expm1: non-positive argument"
      else if x > 36.0 then x (* exp x -. 1. = exp x to double precision *)
      else log (Float.expm1 x)
  end

  let tiny_rate_width = 1e-12

  (* log of the integral of exp (v + r * (x - t0)) over x in [t0, t0 + w],
     where v is the log-density at the left edge. *)
  let log_piece_mass ~left_logval:v ~rate:r ~width:w =
    if w <= 0.0 then neg_infinity
    else if Float.abs (r *. w) < tiny_rate_width then v +. log w +. (0.5 *. r *. w)
    else if r > 0.0 then v +. (r *. w) +. Special.log1mexp (-.r *. w) -. log r
    else v +. Special.log1mexp (r *. w) -. log (-.r)

  (* Inverse of the within-piece CDF: given the mass fraction q of the
     piece that should lie left of the answer, return the offset y from
     the left edge, 0 <= y <= w. Solves (e^{ry} - 1) / (e^{rw} - 1) = q. *)
  let invert_piece ~rate:r ~width:w q =
    if q <= 0.0 then 0.0
    else if q >= 1.0 then w
    else if Float.abs (r *. w) < tiny_rate_width then q *. w
    else if r > 0.0 then begin
      let log_term = log q +. Special.log_expm1 (r *. w) in
      let y = Special.log_sum_exp2 0.0 log_term /. r in
      Float.max 0.0 (Float.min w y)
    end
    else begin
      let y = Float.log1p (q *. Float.expm1 (r *. w)) /. r in
      Float.max 0.0 (Float.min w y)
    end

  (* The log-space compile's log masses and its sample's normalised
     choice of piece, over the pieces of [pw]. *)
  let sample rng pw =
    let pieces = Array.of_list (Piecewise.pieces pw) in
    let n = Array.length pieces in
    let logvals = Array.make (n + 1) 0.0 in
    Array.iteri (fun i (lo, hi, r) -> logvals.(i + 1) <- logvals.(i) +. (r *. (hi -. lo))) pieces;
    let m = Array.fold_left max neg_infinity logvals in
    Array.iteri (fun i v -> logvals.(i) <- v -. m) logvals;
    let log_masses =
      Array.mapi
        (fun i (lo, hi, r) -> log_piece_mass ~left_logval:logvals.(i) ~rate:r ~width:(hi -. lo))
        pieces
    in
    let log_z = Qnet_prob.Special.log_sum_exp log_masses in
    let i =
      if n = 1 then 0
      else Rng.categorical rng (Array.map (fun lm -> exp (lm -. log_z)) log_masses)
    in
    let lo, hi, r = pieces.(i) in
    (log_z, lo +. invert_piece ~rate:r ~width:(hi -. lo) (Rng.float_unit rng))
end

let rel_diff a b = if Float.equal a b then 0.0 else Float.abs (a -. b) /. Float.abs b

(* One piece [0, w] with slope r and a mass fraction q. A quarter of the
   cases are rising pieces with r w in 20-40 and q within 2^10 steps of
   2^-53, where the log-space inversion loses the most; a quarter reach
   rates to 1e300 and widths to 1e-314; a quarter sit at |r w| ~ 1e-12. *)
let piece_gen =
  let open QCheck.Gen in
  let log_uniform lo hi = map (fun e -> 10.0 ** e) (float_range lo hi) in
  let signed g = map2 (fun up x -> if up then x else -.x) bool g in
  let near_min_q = map (fun k -> float_of_int k *. 0x1p-53) (int_range 1 1024) in
  frequency
    [
      ( 1,
        map3 (fun r w q -> (r, w, q)) (signed (log_uniform (-3.) 3.)) (log_uniform (-4.) 1.)
          (float_range 0.0 1.0) );
      ( 1,
        map3
          (fun r rw q -> (r, rw /. r, q))
          (log_uniform (-2.) 2.) (float_range 20.0 40.0) near_min_q );
      ( 1,
        map3
          (fun r rw q -> (r, Float.abs (rw /. r), q))
          (signed (log_uniform 0. 300.)) (log_uniform (-14.) 3.) (float_range 0.0 1.0) );
      ( 1,
        map3
          (fun r dev q -> (r, 1e-12 *. (1.0 +. dev) /. Float.abs r, q))
          (signed (log_uniform (-3.) 3.)) (float_range (-1e-3) 1e-3)
          (oneof [ float_range 0.0 1.0; near_min_q ]) );
    ]

(* The masses agree with the oracle's to 1e-14 of max (1, |log mass|)
   (a 4M-case scan read 1.3e-15), and the draws to 1e-12 relative (the
   scan read 2.1e-13, all of it the oracle's own error: the new draw is
   log1p (q * expm1 (r w)) / r to the bit wherever |r w| >= 1e-12 and
   expm1 is finite). Inverting a rising piece from its right end
   instead, w + log1p ((1 - q) * expm1 (-r w)) / r, is off by more than
   1e-4 relative on the steep cases and fails. *)
let qcheck_piecewise_linear_space_oracle =
  QCheck.Test.make ~name:"linear-space piece ≡ log-space oracle" ~count:20_000
    (QCheck.make piece_gen ~print:(fun (r, w, q) -> Printf.sprintf "r %h w %h q %h" r w q))
    (fun (r, w, q) ->
      let pw = Piecewise.compile ~lower:0.0 ~upper:w ~linear:r ~hinges:[] in
      let lm =
        Log_space.log_piece_mass ~left_logval:(Piecewise.log_density pw 0.0) ~rate:r ~width:w
      in
      let mass_err = Float.abs (Piecewise.log_normalizer pw -. lm) /. Float.max 1.0 (Float.abs lm) in
      let y = Piecewise.quantile pw q in
      let em = Float.expm1 (r *. w) in
      mass_err <= 1e-14
      && rel_diff y (Log_space.invert_piece ~rate:r ~width:w q) <= 1e-12
      && (Float.abs (r *. w) < 1e-12 || not (em < infinity)
         || Float.equal y (Float.max 0.0 (Float.min w (Float.log1p (q *. em) /. r)))))

(* Whole densities of one to three pieces drawn by Piecewise.sample and
   by the oracle from one seed: the same piece, the same uniform, the
   same draw to 1e-12 of the window. *)
let qcheck_piecewise_sample_oracle =
  QCheck.Test.make ~name:"sample ≡ log-space oracle draw" ~count:500
    QCheck.(
      triple (float_range (-30.0) 30.0)
        (list_of_size (Gen.int_bound 2)
           (pair (float_bound_exclusive 4.0) (float_range (-25.0) 25.0)))
        small_nat)
    (fun (linear, hinge_spec, seed) ->
      let hinges =
        List.map (fun (pos, slope) -> { Piecewise.knee = pos; slope }) hinge_spec
      in
      let pw = Piecewise.compile ~lower:0.0 ~upper:4.0 ~linear ~hinges in
      let a = Rng.create ~seed () and b = Rng.create ~seed () in
      List.for_all
        (fun _ ->
          let log_z, x_oracle = Log_space.sample b pw in
          Float.abs (Piecewise.sample a pw -. x_oracle) <= 4e-12
          && Float.abs (Piecewise.log_normalizer pw -. log_z)
             <= 1e-14 *. Float.max 1.0 (Float.abs log_z))
        (List.init 20 Fun.id))

(* ------------------------------------------------------------------ *)
(* Statistics *)

let test_welford_matches_direct () =
  let xs = [| 1.0; 2.5; -0.5; 4.0; 3.3; 0.2 |] in
  let w = Stats.Welford.create () in
  Array.iter (Stats.Welford.add w) xs;
  check_rel "welford mean" (Stats.mean xs) (Stats.Welford.mean w);
  check_rel "welford var" (Stats.variance xs) (Stats.Welford.variance w);
  Alcotest.(check int) "count" 6 (Stats.Welford.count w);
  check_close "min" (-0.5) (Stats.Welford.min w);
  check_close "max" 4.0 (Stats.Welford.max w)

let test_welford_merge () =
  let xs = Array.init 100 (fun i -> sin (float_of_int i)) in
  let a = Stats.Welford.create () and b = Stats.Welford.create () in
  Array.iteri (fun i x -> Stats.Welford.add (if i < 40 then a else b) x) xs;
  let merged = Stats.Welford.merge a b in
  check_rel "merged mean" (Stats.mean xs) (Stats.Welford.mean merged);
  check_rel "merged var" (Stats.variance xs) (Stats.Welford.variance merged)

let test_quantile_interpolation () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_close "q0" 1.0 (Stats.quantile xs 0.0);
  check_close "q1" 4.0 (Stats.quantile xs 1.0);
  check_close "median" 2.5 (Stats.quantile xs 0.5);
  check_close "q25" 1.75 (Stats.quantile xs 0.25)

let test_median () = check_close "odd median" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])

let test_histogram_counts () =
  let xs = [| 0.1; 0.2; 0.9; 1.9; 2.0 |] in
  let h = Stats.histogram ~bins:2 xs in
  Alcotest.(check int) "bins" 2 (Array.length h);
  let _, _, c0 = h.(0) and _, _, c1 = h.(1) in
  Alcotest.(check int) "total count" 5 (c0 + c1);
  Alcotest.(check int) "first bin" 3 c0

let test_ks_two_sample_identical () =
  let xs = [| 1.0; 2.0; 3.0 |] in
  check_close "identical samples" 0.0 (Stats.ks_two_sample xs xs)

let test_ks_two_sample_disjoint () =
  let xs = [| 1.0; 2.0 |] and ys = [| 10.0; 11.0 |] in
  check_close "disjoint samples" 1.0 (Stats.ks_two_sample xs ys)

let test_autocorrelation () =
  let xs = Array.init 1000 (fun i -> if i mod 2 = 0 then 1.0 else -1.0) in
  check_rel ~eps:0.01 "alternating lag1" (-1.0) (Stats.autocorrelation xs 1);
  check_rel ~eps:0.01 "alternating lag2" 1.0 (Stats.autocorrelation xs 2);
  check_close "constant series" 0.0 (Stats.autocorrelation (Array.make 10 2.0) 1)

let test_ess_iid () =
  let rng = Rng.create ~seed:61 () in
  let xs = Array.init 4000 (fun _ -> Rng.float_unit rng) in
  let ess = Stats.effective_sample_size xs in
  Alcotest.(check bool)
    (Printf.sprintf "iid ESS near n (got %.0f)" ess)
    true
    (ess > 2000.0)

let test_ess_correlated () =
  (* AR(1) with strong correlation has a much smaller ESS *)
  let rng = Rng.create ~seed:62 () in
  let n = 4000 in
  let xs = Array.make n 0.0 in
  for i = 1 to n - 1 do
    xs.(i) <- (0.95 *. xs.(i - 1)) +. Rng.float_unit rng -. 0.5
  done;
  let ess = Stats.effective_sample_size xs in
  Alcotest.(check bool)
    (Printf.sprintf "AR(1) ESS much smaller than n (got %.0f)" ess)
    true (ess < 1000.0)

let test_gelman_rubin_same_dist () =
  let rng = Rng.create ~seed:63 () in
  let chains = Array.init 4 (fun _ -> Array.init 2000 (fun _ -> Rng.float_unit rng)) in
  let r = Stats.gelman_rubin chains in
  Alcotest.(check bool) (Printf.sprintf "R-hat near 1 (got %.3f)" r) true (r < 1.05)

let test_gelman_rubin_detects_divergence () =
  let rng = Rng.create ~seed:64 () in
  let chains =
    Array.init 2 (fun c ->
        Array.init 1000 (fun _ -> Rng.float_unit rng +. (float_of_int c *. 10.0)))
  in
  let r = Stats.gelman_rubin chains in
  Alcotest.(check bool) (Printf.sprintf "R-hat large (got %.3f)" r) true (r > 2.0)

(* --- split-R-hat / pooled-ESS edge cases --------------------------- *)
(* The exact values below are the documented contract the streaming
   diagnostics hub (Qnet_obs.Diagnostics) builds on; a change here is
   an API change, not a refactor. *)

let test_split_rhat_single_chain () =
  (* one trending chain: the two halves occupy different regions, so
     splitting exposes the drift as R-hat >> 1. By hand: halves
     [1..4],[5..8] give B = 32, W = 5/3, var+ = 9.25,
     R-hat = sqrt(9.25 / (5/3)) = sqrt 5.55. *)
  let trending = [| 1.0; 2.0; 3.0; 4.0; 5.0; 6.0; 7.0; 8.0 |] in
  check_close "trending single chain pinned"
    (sqrt (9.25 /. (5.0 /. 3.0)))
    (Stats.split_gelman_rubin [| trending |]);
  (* one stationary chain: identical halves make B = 0, and the
     finite-sample statistic dips below 1 (var+ < W) — pinned so the
     convention "R-hat < 1 is possible and fine" stays explicit *)
  let alternating = [| 1.0; 2.0; 1.0; 2.0; 1.0; 2.0; 1.0; 2.0 |] in
  check_close "stationary single chain pinned" (sqrt 0.75)
    (Stats.split_gelman_rubin [| alternating |])

let test_split_rhat_constant_chains () =
  (* zero within-chain variance pins R-hat to exactly 1.0 — even when
     chain means disagree. W = 0 makes the ratio undefined; returning
     1 (not inf) keeps a just-started, not-yet-moving ensemble from
     reading as divergent. *)
  check_close "one constant chain" 1.0
    (Stats.split_gelman_rubin [| Array.make 8 2.0 |]);
  check_close "disagreeing constant chains still 1.0" 1.0
    (Stats.split_gelman_rubin [| Array.make 8 1.0; Array.make 8 2.0 |])

let test_split_rhat_nan_chain () =
  (* NaN flows through the moments to a NaN R-hat: screening is the
     caller's job (the streaming accumulators skip NaN at the door) *)
  let r = Stats.split_gelman_rubin [| [| 1.0; 2.0; Float.nan; 4.0 |] |] in
  Alcotest.(check bool) "NaN-bearing chain yields NaN" true (Float.is_nan r)

let test_split_rhat_odd_length () =
  (* length 9 gives half = 4: only the most recent 2*4 samples enter,
     so the oldest sample — burn-in — falls out of the window *)
  let with_spike = [| 99.0; 1.0; 2.0; 1.0; 2.0; 1.0; 2.0; 1.0; 2.0 |] in
  let without = Array.sub with_spike 1 8 in
  check_close "odd length drops the oldest sample"
    (Stats.split_gelman_rubin [| without |])
    (Stats.split_gelman_rubin [| with_spike |]);
  (* unequal chain lengths (post-restart): the shortest decides the
     window and every chain contributes its most recent samples *)
  let short = [| 1.0; 2.0; 1.0; 2.0 |] in
  let long = [| 50.0; 50.0; 1.0; 2.0; 1.0; 2.0 |] in
  check_close "shortest chain decides the window"
    (Stats.split_gelman_rubin [| short; Array.sub long 2 4 |])
    (Stats.split_gelman_rubin [| short; long |])

let test_split_rhat_too_short () =
  Alcotest.check_raises "three samples cannot split"
    (Invalid_argument "Statistics.split_gelman_rubin: chains too short")
    (fun () -> ignore (Stats.split_gelman_rubin [| [| 1.0; 2.0; 3.0 |] |]));
  Alcotest.check_raises "no chains rejected"
    (Invalid_argument "Statistics.split_gelman_rubin: need >= 1 chain")
    (fun () -> ignore (Stats.split_gelman_rubin [||]))

let test_pooled_ess_edges () =
  (* a chain shorter than 4 contributes its raw length *)
  check_close "single short chain" 3.0
    (Stats.pooled_effective_sample_size [| [| 1.0; 2.0; 3.0 |] |]);
  (* a constant chain has zero autocorrelation by convention and
     counts in full *)
  check_close "constant chain counts in full" 5.0
    (Stats.pooled_effective_sample_size [| Array.make 5 7.0 |]);
  (* pooling is the plain sum of per-chain ESS *)
  check_close "sums across chains" 8.0
    (Stats.pooled_effective_sample_size
       [| Array.make 5 7.0; [| 1.0; 2.0; 3.0 |] |]);
  (* a NaN anywhere poisons that chain's moments and thus the total *)
  Alcotest.(check bool) "NaN-bearing chain yields NaN total" true
    (Float.is_nan
       (Stats.pooled_effective_sample_size
          [| [| 1.0; Float.nan; 2.0; 3.0; 4.0 |] |]));
  Alcotest.check_raises "no chains rejected"
    (Invalid_argument "Statistics.pooled_effective_sample_size: need >= 1 chain")
    (fun () -> ignore (Stats.pooled_effective_sample_size [||]))

(* --- streaming (Online) accumulators ------------------------------- *)

let test_online_acf_matches_batch () =
  let rng = Rng.create ~seed:65 () in
  let n = 4000 in
  let xs = Array.make n 0.0 in
  for i = 1 to n - 1 do
    xs.(i) <- (0.6 *. xs.(i - 1)) +. Rng.float_unit rng -. 0.5
  done;
  let t = Stats.Online.acf ~max_lag:8 () in
  Array.iter (Stats.Online.push t) xs;
  Alcotest.(check int) "count" n (Stats.Online.count t);
  check_close ~eps:1e-9 "mean" (Stats.mean xs) (Stats.Online.mean t);
  (* global-mean centering is an O(1/n) approximation of the batch
     estimator; at n = 4000 they agree to a few percent *)
  for k = 1 to 3 do
    let b = Stats.autocorrelation xs k and s = Stats.Online.autocorrelation t k in
    if Float.abs (b -. s) > 0.02 then
      Alcotest.failf "lag %d drifted: batch %f streaming %f" k b s
  done;
  let be = Stats.effective_sample_size xs and se = Stats.Online.ess t in
  if Float.abs (be -. se) /. be > 0.25 then
    Alcotest.failf "ESS drifted: batch %f streaming %f" be se

let test_online_clamps_and_nan () =
  (* non-finite samples are skipped and counted, never poisoning the
     moments *)
  let t = Stats.Online.acf ~max_lag:4 () in
  List.iter (Stats.Online.push t)
    [ 1.0; Float.nan; 2.0; Float.infinity; 1.0; 2.0; 1.0; 2.0 ];
  Alcotest.(check int) "finite samples accepted" 6 (Stats.Online.count t);
  Alcotest.(check int) "non-finite counted" 2 (Stats.Online.skipped t);
  check_close "mean over accepted" 1.5 (Stats.Online.mean t);
  (* while a series still trends, the streaming autocovariance can
     overshoot gamma_0; the autocorrelation must stay clamped *)
  let trend = Stats.Online.acf ~max_lag:4 () in
  for i = 1 to 12 do
    Stats.Online.push trend (float_of_int i)
  done;
  let a1 = Stats.Online.autocorrelation trend 1 in
  Alcotest.(check bool)
    (Printf.sprintf "acf1 within [-1,1] (got %f)" a1)
    true
    (a1 >= -1.0 && a1 <= 1.0);
  let e = Stats.Online.ess trend in
  Alcotest.(check bool)
    (Printf.sprintf "ESS within [1,n] (got %f)" e)
    true
    (e >= 1.0 && e <= 12.0);
  (* empty accumulator conventions *)
  let empty = Stats.Online.acf () in
  check_close "empty ESS is 0" 0.0 (Stats.Online.ess empty);
  Alcotest.(check bool) "empty mean is NaN" true
    (Float.is_nan (Stats.Online.mean empty))

let qcheck_quantile_bounds =
  QCheck.Test.make ~name:"quantile stays within data range" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 40) (float_range (-100.) 100.)) (float_bound_inclusive 1.0))
    (fun (l, p) ->
      let xs = Array.of_list l in
      let q = Stats.quantile xs p in
      let lo = Array.fold_left Float.min infinity xs in
      let hi = Array.fold_left Float.max neg_infinity xs in
      q >= lo -. 1e-9 && q <= hi +. 1e-9)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qnet_prob"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "copy independence" `Quick test_rng_copy_independent;
          Alcotest.test_case "split diverges" `Quick test_rng_split_diverges;
          Alcotest.test_case "float_unit range" `Quick test_float_unit_range;
          Alcotest.test_case "float_pos range" `Quick test_float_pos_range;
          Alcotest.test_case "float_unit mean" `Quick test_float_unit_mean;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "int rejects bad bound" `Quick test_int_rejects_nonpositive;
          Alcotest.test_case "golden stream" `Quick test_rng_golden_stream;
          Alcotest.test_case "int draws allocate nothing" `Quick
            test_rng_int_draws_allocate_nothing;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
          Alcotest.test_case "sample w/o replacement" `Quick test_sample_without_replacement;
          Alcotest.test_case "sample w/o replacement all" `Quick
            test_sample_without_replacement_all;
          Alcotest.test_case "sample w/o replacement uniform" `Quick
            test_sample_without_replacement_uniform;
          Alcotest.test_case "categorical frequencies" `Quick test_categorical_frequencies;
          Alcotest.test_case "categorical zero weights" `Quick test_categorical_zero_weights;
          Alcotest.test_case "categorical all-zero rejected" `Quick
            test_categorical_rejects_all_zero;
        ] );
      ( "special",
        [
          Alcotest.test_case "log_sum_exp" `Quick test_log_sum_exp;
          Alcotest.test_case "log_gamma" `Quick test_log_gamma_known_values;
          Alcotest.test_case "log_factorial" `Quick test_log_factorial;
          Alcotest.test_case "erfc tail" `Quick test_erfc_tail;
          Alcotest.test_case "normal cdf" `Quick test_std_normal_cdf;
          Alcotest.test_case "normal quantile roundtrip" `Quick
            test_std_normal_quantile_roundtrip;
          Alcotest.test_case "incomplete gamma" `Quick test_incomplete_gamma;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "validate" `Quick test_dist_validate;
          Alcotest.test_case "exponential moments" `Slow test_exponential_moments;
          Alcotest.test_case "uniform moments" `Slow test_uniform_moments;
          Alcotest.test_case "gamma moments" `Slow test_gamma_moments;
          Alcotest.test_case "gamma shape<1 moments" `Slow test_gamma_small_shape_moments;
          Alcotest.test_case "erlang moments" `Slow test_erlang_moments;
          Alcotest.test_case "normal moments" `Slow test_normal_moments;
          Alcotest.test_case "lognormal moments" `Slow test_lognormal_moments;
          Alcotest.test_case "hyperexp moments" `Slow test_hyperexp_moments;
          Alcotest.test_case "truncated-exp moments" `Slow test_trunc_exp_moments;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "KS exponential" `Slow test_ks_exponential;
          Alcotest.test_case "KS gamma" `Slow test_ks_gamma;
          Alcotest.test_case "KS erlang" `Slow test_ks_erlang;
          Alcotest.test_case "KS normal" `Slow test_ks_normal;
          Alcotest.test_case "KS lognormal" `Slow test_ks_lognormal;
          Alcotest.test_case "KS pareto" `Slow test_ks_pareto;
          Alcotest.test_case "KS uniform" `Slow test_ks_uniform;
          Alcotest.test_case "KS hyperexp" `Slow test_ks_hyperexp;
          Alcotest.test_case "KS truncated exp" `Slow test_ks_trunc_exp;
          Alcotest.test_case "quantile roundtrip" `Quick test_quantile_roundtrip;
          Alcotest.test_case "pdf integrates to cdf" `Quick test_pdf_integrates_to_cdf;
          Alcotest.test_case "squared CV ordering" `Quick test_squared_cv;
        ] );
      ( "piecewise",
        [
          Alcotest.test_case "simple exponential cdf" `Quick
            test_piecewise_simple_exponential;
          Alcotest.test_case "uniform piece" `Quick test_piecewise_uniform;
          Alcotest.test_case "hinge breakpoints" `Quick test_piecewise_hinge_breakpoints;
          Alcotest.test_case "knees outside interval" `Quick test_piecewise_knee_outside;
          Alcotest.test_case "density continuity" `Quick test_piecewise_density_continuity;
          Alcotest.test_case "normalizer vs quadrature" `Quick
            test_piecewise_normalizer_vs_quadrature;
          Alcotest.test_case "cdf vs quadrature" `Quick test_piecewise_cdf_vs_quadrature;
          Alcotest.test_case "quantile roundtrip" `Quick test_piecewise_quantile_roundtrip;
          Alcotest.test_case "sampler KS" `Slow test_piecewise_sampler_ks;
          Alcotest.test_case "extreme rates" `Quick test_piecewise_sampler_extreme_rates;
          Alcotest.test_case "mean vs sampling" `Slow test_piecewise_mean_vs_sampling;
          Alcotest.test_case "degenerate rejected" `Quick test_piecewise_degenerate_rejected;
          qc qcheck_piecewise_sampler_in_support;
          qc qcheck_piecewise_cdf_monotone;
          Alcotest.test_case "closed forms at rates to 1e300" `Quick
            test_piecewise_extreme_rates_closed_form;
          Alcotest.test_case "denormal widths" `Quick test_piecewise_denormal_widths;
          Alcotest.test_case "either side of |r w| = 1e-12" `Quick test_piecewise_flat_switch;
          qc qcheck_piecewise_linear_space_oracle;
          qc qcheck_piecewise_sample_oracle;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "welford vs direct" `Quick test_welford_matches_direct;
          Alcotest.test_case "welford merge" `Quick test_welford_merge;
          Alcotest.test_case "quantile interpolation" `Quick test_quantile_interpolation;
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "histogram" `Quick test_histogram_counts;
          Alcotest.test_case "ks two-sample identical" `Quick test_ks_two_sample_identical;
          Alcotest.test_case "ks two-sample disjoint" `Quick test_ks_two_sample_disjoint;
          Alcotest.test_case "autocorrelation" `Quick test_autocorrelation;
          Alcotest.test_case "ESS iid" `Slow test_ess_iid;
          Alcotest.test_case "ESS correlated" `Slow test_ess_correlated;
          Alcotest.test_case "gelman-rubin converged" `Slow test_gelman_rubin_same_dist;
          Alcotest.test_case "gelman-rubin divergent" `Quick
            test_gelman_rubin_detects_divergence;
          Alcotest.test_case "split R-hat: single chain" `Quick
            test_split_rhat_single_chain;
          Alcotest.test_case "split R-hat: constant chains" `Quick
            test_split_rhat_constant_chains;
          Alcotest.test_case "split R-hat: NaN chain" `Quick test_split_rhat_nan_chain;
          Alcotest.test_case "split R-hat: odd/unequal lengths" `Quick
            test_split_rhat_odd_length;
          Alcotest.test_case "split R-hat: too-short rejected" `Quick
            test_split_rhat_too_short;
          Alcotest.test_case "pooled ESS: edge cases pinned" `Quick
            test_pooled_ess_edges;
          Alcotest.test_case "online acf/ess matches batch" `Quick
            test_online_acf_matches_batch;
          Alcotest.test_case "online clamps and NaN hygiene" `Quick
            test_online_clamps_and_nan;
          qc qcheck_quantile_bounds;
        ] );
    ]
