(* Tests for the numerical-integration oracle. *)

module Quad = Quadrature

let check_close ?(eps = 1e-9) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.12g, got %.12g" name expected actual

let test_simpson_polynomial () =
  (* adaptive Simpson is exact on cubics *)
  check_close "x^3" 4.0 (Quad.adaptive_simpson (fun x -> x *. x *. x) 0.0 2.0);
  check_close "constant" 6.0 (Quad.adaptive_simpson (fun _ -> 2.0) 0.0 3.0);
  check_close "linear" 12.5 (Quad.adaptive_simpson (fun x -> x) 0.0 5.0)

let test_simpson_transcendental () =
  check_close ~eps:1e-8 "sin over [0,pi]" 2.0
    (Quad.adaptive_simpson sin 0.0 Float.pi);
  check_close ~eps:1e-8 "exp over [0,1]" (Float.expm1 1.0)
    (Quad.adaptive_simpson exp 0.0 1.0);
  check_close ~eps:1e-7 "1/(1+x^2) arctan" (Float.atan 4.0)
    (Quad.adaptive_simpson (fun x -> 1.0 /. (1.0 +. (x *. x))) 0.0 4.0)

let test_simpson_narrow_spike () =
  (* a narrow Gaussian spike requires deep adaptivity *)
  let f x = exp (-.((x -. 0.5) ** 2.0) /. 2e-4) in
  let expected = sqrt (Float.pi *. 2e-4) in
  check_close ~eps:1e-7 "narrow spike" expected (Quad.adaptive_simpson f (-2.0) 3.0)

let test_simpson_empty_interval () =
  check_close "a = b" 0.0 (Quad.adaptive_simpson exp 1.0 1.0)

let test_simpson_rejects_reversed () =
  Alcotest.check_raises "a > b"
    (Invalid_argument "Quadrature.adaptive_simpson: a > b") (fun () ->
      ignore (Quad.adaptive_simpson exp 2.0 1.0))

let test_trapezoid_agrees () =
  let f x = (x *. x) +. sin x in
  let a = 0.2 and b = 2.7 in
  let reference = Quad.adaptive_simpson f a b in
  check_close ~eps:1e-4 "trapezoid vs simpson" reference (Quad.trapezoid ~n:4096 f a b)

let test_log_integral_exp_matches () =
  (* log ∫ e^{-x} over [0, 2] = log (1 - e^-2) *)
  check_close ~eps:1e-8 "log integral exp" (log (1.0 -. exp (-2.0)))
    (Quad.log_integral_exp (fun x -> -.x) 0.0 2.0)

let test_log_integral_exp_extreme () =
  (* integrand spanning hundreds of orders of magnitude: log ∫_0^1
     e^{-1000 x} dx = log ((1 - e^-1000)/1000) = -log 1000 *)
  check_close ~eps:1e-4 "extreme decay" (-.log 1000.0)
    (Quad.log_integral_exp ~n:65536 (fun x -> -1000.0 *. x) 0.0 1.0);
  (* huge positive exponents must not overflow: log ∫_0^1 e^{1000x} dx
     = 1000 - log 1000 + log(1 - e^-1000) *)
  check_close ~eps:1e-4 "extreme growth" (1000.0 -. log 1000.0)
    (Quad.log_integral_exp ~n:65536 (fun x -> 1000.0 *. x) 0.0 1.0)

let test_log_integral_empty () =
  check_close "empty" neg_infinity (Quad.log_integral_exp (fun _ -> 0.0) 2.0 2.0)

let () =
  Alcotest.run "quadrature"
    [
      ( "quadrature",
        [
          Alcotest.test_case "polynomials exact" `Quick test_simpson_polynomial;
          Alcotest.test_case "transcendental" `Quick test_simpson_transcendental;
          Alcotest.test_case "narrow spike" `Quick test_simpson_narrow_spike;
          Alcotest.test_case "empty interval" `Quick test_simpson_empty_interval;
          Alcotest.test_case "reversed rejected" `Quick test_simpson_rejects_reversed;
          Alcotest.test_case "trapezoid agrees" `Quick test_trapezoid_agrees;
          Alcotest.test_case "log-integral basic" `Quick test_log_integral_exp_matches;
          Alcotest.test_case "log-integral extreme" `Quick test_log_integral_exp_extreme;
          Alcotest.test_case "log-integral empty" `Quick test_log_integral_empty;
        ] );
    ]
