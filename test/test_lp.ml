(* Tests for the LP substrate: difference constraints and simplex. *)

module Dcs = Qnet_lp.Difference_constraints
module Simplex = Qnet_lp.Simplex

let check_close ?(eps = 1e-6) name expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" name expected actual

let solve_ok t mode =
  match Dcs.solve t mode with
  | Ok x -> x
  | Error { Dcs.message } -> Alcotest.failf "unexpected infeasibility: %s" message

(* ------------------------------------------------------------------ *)
(* Difference constraints *)

let test_dcs_empty_feasible () =
  let t = Dcs.create 3 in
  let x = solve_ok t `Earliest in
  Alcotest.(check int) "dimension" 3 (Array.length x);
  (match Dcs.check t x with
  | Ok () -> ()
  | Error m -> Alcotest.fail m)

let test_dcs_chain () =
  (* x0 <= x1 - 1 <= x2 - 2, x0 = 0 *)
  let t = Dcs.create 3 in
  Dcs.add_eq t 0 0.0;
  Dcs.add_le t 0 1 (-1.0);
  Dcs.add_le t 1 2 (-1.0);
  let e = solve_ok t `Earliest in
  check_close "e0" 0.0 e.(0);
  check_close "e1" 1.0 e.(1);
  check_close "e2" 2.0 e.(2);
  (match Dcs.check t e with Ok () -> () | Error m -> Alcotest.fail m)

let test_dcs_latest_vs_earliest () =
  let t = Dcs.create ~default_upper:100.0 2 in
  Dcs.add_eq t 0 5.0;
  Dcs.add_le t 0 1 (-2.0) (* x0 - x1 <= -2, i.e. x1 >= 7 *);
  let e = solve_ok t `Earliest in
  let l = solve_ok t `Latest in
  check_close "earliest x1" 7.0 e.(1);
  check_close "latest x1 hits cap" 100.0 l.(1);
  Alcotest.(check bool) "earliest <= latest" true (e.(1) <= l.(1))

let test_dcs_centered_feasible () =
  let t = Dcs.create ~default_upper:50.0 4 in
  Dcs.add_eq t 0 0.0;
  Dcs.add_eq t 3 10.0;
  Dcs.add_le t 0 1 (-1.0);
  Dcs.add_le t 1 2 (-1.0);
  Dcs.add_le t 2 3 (-1.0);
  match Dcs.solve_centered t with
  | Error { Dcs.message } -> Alcotest.fail message
  | Ok x -> (
      match Dcs.check t x with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)

let test_dcs_infeasible_cycle () =
  (* x0 < x1 < x0 *)
  let t = Dcs.create 2 in
  Dcs.add_le t 0 1 (-1.0);
  Dcs.add_le t 1 0 (-1.0);
  (match Dcs.solve t `Earliest with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected infeasibility");
  match Dcs.solve t `Latest with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected infeasibility"

let test_dcs_infeasible_bounds () =
  let t = Dcs.create 1 in
  Dcs.add_lower t 0 5.0;
  Dcs.add_upper t 0 4.0;
  match Dcs.solve t `Earliest with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected infeasibility"

let test_dcs_upper_lower_interaction () =
  let t = Dcs.create 2 in
  Dcs.add_lower t 0 1.0;
  Dcs.add_upper t 0 3.0;
  Dcs.add_le t 0 1 0.0;
  Dcs.add_upper t 1 2.0;
  let e = solve_ok t `Earliest in
  let l = solve_ok t `Latest in
  Alcotest.(check bool) "x0 in [1,3]" true (e.(0) >= 1.0 -. 1e-9 && l.(0) <= 3.0 +. 1e-9);
  Alcotest.(check bool) "x1 <= 2 and >= x0" true (l.(1) <= 2.0 +. 1e-9 && e.(1) >= e.(0) -. 1e-9)

let test_dcs_check_detects_violation () =
  let t = Dcs.create 2 in
  Dcs.add_le t 0 1 (-1.0);
  match Dcs.check t [| 5.0; 5.5 |] with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected violation"

let test_dcs_bad_variable_rejected () =
  let t = Dcs.create 2 in
  Alcotest.check_raises "bad index"
    (Invalid_argument "Difference_constraints.add_le: bad variable") (fun () ->
      Dcs.add_le t 0 2 1.0)

(* The solver relaxes an edge only on an improvement of more than
   1e-12, so when two paths give values closer than that, the one it
   visits first wins. Each system below has such a near-tie, and the
   expected bits pin the visiting order: a row lists its constraints'
   edges in insertion order, the reference row then lists the
   default-upper caps from the last variable down to the first, and
   the worklist is first in, first out. *)
let test_dcs_visiting_order () =
  let bits = Int64.bits_of_float in
  let check_bits name expected got =
    if not (Int64.equal (bits expected) (bits got)) then
      Alcotest.failf "%s: expected %h, got %h" name expected got
  in
  let tie = 5e-13 in
  (* two upper bounds on one variable: the first inserted wins *)
  let t = Dcs.create ~default_upper:100.0 2 in
  Dcs.add_upper t 1 2.0;
  Dcs.add_upper t 1 (2.0 -. tie);
  check_bits "latest, row in insertion order" 2.0 (solve_ok t `Latest).(1);
  (* the mirror image for the earliest solution *)
  let t = Dcs.create ~default_upper:100.0 2 in
  Dcs.add_lower t 1 2.0;
  Dcs.add_lower t 1 (2.0 +. tie);
  check_bits "earliest, row in insertion order" 2.0 (solve_ok t `Earliest).(1);
  (* a constraint's edge out of the reference precedes the caps *)
  let t = Dcs.create ~default_upper:100.0 2 in
  Dcs.add_upper t 0 (100.0 -. tie);
  check_bits "constraints before caps" (100.0 -. tie) (solve_ok t `Latest).(0);
  (* caps from the last variable down: x1 is dequeued before x0, so its
     path to x2 is the one kept *)
  let t = Dcs.create ~default_upper:10.0 3 in
  Dcs.add_le t 2 0 (-1.0);
  Dcs.add_le t 2 1 (-1.0 +. tie);
  check_bits "caps descending, FIFO worklist" (10.0 +. (-1.0 +. tie)) (solve_ok t `Latest).(2);
  (* with several violations, check reports the last one added *)
  let t = Dcs.create 2 in
  Dcs.add_upper t 0 1.0;
  Dcs.add_le t 0 1 (-1.0);
  Dcs.add_lower t 1 9.0;
  match Dcs.check t [| 5.0; 5.5 |] with
  | Error m -> Alcotest.(check string) "last violation reported" "violated: x1 >= 9 (got 5.5)" m
  | Ok () -> Alcotest.fail "expected violation"

let test_dcs_large_chain_performance () =
  (* a long chain must solve quickly (SPFA, not naive O(VE)) *)
  let n = 20_000 in
  let t = Dcs.create n in
  Dcs.add_eq t 0 0.0;
  for i = 0 to n - 2 do
    Dcs.add_le t i (i + 1) (-0.001)
  done;
  let started = Sys.time () in
  let x = solve_ok t `Earliest in
  let elapsed = Sys.time () -. started in
  check_close ~eps:1e-6 "chain end" (0.001 *. float_of_int (n - 1)) x.(n - 1);
  if elapsed > 5.0 then Alcotest.failf "chain solve too slow: %.1fs" elapsed

(* random feasible systems: solutions must check out; oracle against
   simplex on small instances *)
let qcheck_dcs_solution_feasible =
  QCheck.Test.make ~name:"dcs solutions satisfy constraints" ~count:100
    QCheck.(
      list_of_size Gen.(1 -- 30) (triple (int_bound 7) (int_bound 7) (float_range 0.0 5.0)))
    (fun triples ->
      let t = Dcs.create ~default_upper:1000.0 8 in
      (* only non-negative c: guarantees feasibility (x = 0 works) *)
      List.iter (fun (i, j, c) -> Dcs.add_le t i j c) triples;
      match (Dcs.solve t `Earliest, Dcs.solve t `Latest, Dcs.solve_centered t) with
      | Ok e, Ok l, Ok c ->
          Dcs.check t e = Ok () && Dcs.check t l = Ok () && Dcs.check t c = Ok ()
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Simplex *)

let solve_simplex p =
  match Simplex.solve p with
  | Simplex.Optimal { objective_value; solution } -> (objective_value, solution)
  | Simplex.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected unbounded"

let test_simplex_textbook_max () =
  (* max 3x + 5y st x <= 4; 2y <= 12; 3x + 2y <= 18 -> (2, 6), 36 *)
  let p =
    {
      Simplex.num_vars = 2;
      objective = [ (0, 3.0); (1, 5.0) ];
      minimize = false;
      constraints =
        [
          { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 4.0 };
          { Simplex.coeffs = [ (1, 2.0) ]; relation = Simplex.Le; rhs = 12.0 };
          { Simplex.coeffs = [ (0, 3.0); (1, 2.0) ]; relation = Simplex.Le; rhs = 18.0 };
        ];
    }
  in
  let v, x = solve_simplex p in
  check_close "objective" 36.0 v;
  check_close "x" 2.0 x.(0);
  check_close "y" 6.0 x.(1)

let test_simplex_min_with_ge () =
  (* min 2x + 3y st x + y >= 4; x >= 1 -> (4, 0)? costs: x cheaper, so
     x = 4, y = 0, objective 8 *)
  let p =
    {
      Simplex.num_vars = 2;
      objective = [ (0, 2.0); (1, 3.0) ];
      minimize = true;
      constraints =
        [
          { Simplex.coeffs = [ (0, 1.0); (1, 1.0) ]; relation = Simplex.Ge; rhs = 4.0 };
          { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Ge; rhs = 1.0 };
        ];
    }
  in
  let v, x = solve_simplex p in
  check_close "objective" 8.0 v;
  check_close "x" 4.0 x.(0);
  check_close "y" 0.0 x.(1)

let test_simplex_equality () =
  (* min x + y st x + 2y = 4, x - y = 1 -> x = 2, y = 1 *)
  let p =
    {
      Simplex.num_vars = 2;
      objective = [ (0, 1.0); (1, 1.0) ];
      minimize = true;
      constraints =
        [
          { Simplex.coeffs = [ (0, 1.0); (1, 2.0) ]; relation = Simplex.Eq; rhs = 4.0 };
          { Simplex.coeffs = [ (0, 1.0); (1, -1.0) ]; relation = Simplex.Eq; rhs = 1.0 };
        ];
    }
  in
  let v, x = solve_simplex p in
  check_close "objective" 3.0 v;
  check_close "x" 2.0 x.(0);
  check_close "y" 1.0 x.(1)

let test_simplex_infeasible () =
  let p =
    {
      Simplex.num_vars = 1;
      objective = [ (0, 1.0) ];
      minimize = true;
      constraints =
        [
          { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Ge; rhs = 5.0 };
          { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 4.0 };
        ];
    }
  in
  match Simplex.solve p with
  | Simplex.Infeasible -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_simplex_unbounded () =
  let p =
    {
      Simplex.num_vars = 1;
      objective = [ (0, 1.0) ];
      minimize = false;
      constraints =
        [ { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Ge; rhs = 0.0 } ];
    }
  in
  match Simplex.solve p with
  | Simplex.Unbounded -> ()
  | _ -> Alcotest.fail "expected Unbounded"

let test_simplex_negative_rhs () =
  (* constraints with negative rhs exercise the row-normalization path:
     min x st -x <= -3  (x >= 3) *)
  let p =
    {
      Simplex.num_vars = 1;
      objective = [ (0, 1.0) ];
      minimize = true;
      constraints =
        [ { Simplex.coeffs = [ (0, -1.0) ]; relation = Simplex.Le; rhs = -3.0 } ];
    }
  in
  let v, x = solve_simplex p in
  check_close "objective" 3.0 v;
  check_close "x" 3.0 x.(0)

let test_simplex_degenerate () =
  (* redundant constraints must not cycle (Bland's rule) *)
  let p =
    {
      Simplex.num_vars = 2;
      objective = [ (0, 1.0); (1, 1.0) ];
      minimize = false;
      constraints =
        [
          { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 2.0 };
          { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Le; rhs = 2.0 };
          { Simplex.coeffs = [ (0, 1.0); (1, 1.0) ]; relation = Simplex.Le; rhs = 3.0 };
          { Simplex.coeffs = [ (1, 1.0) ]; relation = Simplex.Le; rhs = 3.0 };
        ];
    }
  in
  let v, _ = solve_simplex p in
  check_close "objective" 3.0 v

let test_simplex_free_variables () =
  (* min |x|-style: free variable may go negative.
     min y st y >= x - 2, y >= 2 - x with x free and y free: the
     optimum over x puts x = 2, y = 0. Encoded via solve_free. *)
  let p =
    {
      Simplex.num_vars = 2;
      (* x = var 0, y = var 1 *)
      objective = [ (1, 1.0) ];
      minimize = true;
      constraints =
        [
          { Simplex.coeffs = [ (1, 1.0); (0, -1.0) ]; relation = Simplex.Ge; rhs = -2.0 };
          { Simplex.coeffs = [ (1, 1.0); (0, 1.0) ]; relation = Simplex.Ge; rhs = 2.0 };
        ];
    }
  in
  match Simplex.solve_free p with
  | Simplex.Optimal { objective_value; solution } ->
      check_close "objective" 0.0 objective_value;
      check_close "x" 2.0 solution.(0)
  | _ -> Alcotest.fail "expected optimum"

let test_simplex_rejects_bad_input () =
  let p =
    {
      Simplex.num_vars = 1;
      objective = [ (3, 1.0) ];
      minimize = true;
      constraints = [];
    }
  in
  Alcotest.check_raises "bad index" (Invalid_argument "Simplex: variable out of range")
    (fun () -> ignore (Simplex.solve p))

(* Cross-validation: on random bounded problems, simplex optimum must
   satisfy all constraints and beat random feasible points. *)
let qcheck_simplex_beats_random_feasible =
  QCheck.Test.make ~name:"simplex optimum dominates feasible samples" ~count:60
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 4) (pair (float_range 0.1 3.0) (float_range 1.0 10.0)))
        (list_of_size (Gen.return 3) (float_range 0.1 2.0)))
    (fun (rows, costs) ->
      let n = 3 in
      let constraints =
        List.map
          (fun (a, b) ->
            {
              Simplex.coeffs = List.init n (fun j -> (j, a +. float_of_int j));
              relation = Simplex.Le;
              rhs = b;
            })
          rows
      in
      let objective = List.mapi (fun j c -> (j, c)) costs in
      let p = { Simplex.num_vars = n; objective; minimize = false; constraints } in
      match Simplex.solve p with
      | Simplex.Optimal { objective_value; solution } ->
          (* solution feasible? *)
          let feasible =
            List.for_all
              (fun c ->
                let lhs =
                  List.fold_left
                    (fun acc (j, v) -> acc +. (v *. solution.(j)))
                    0.0 c.Simplex.coeffs
                in
                lhs <= c.Simplex.rhs +. 1e-6)
              constraints
            && Array.for_all (fun x -> x >= -1e-9) solution
          in
          (* origin is feasible (rhs > 0) and has objective 0 *)
          feasible && objective_value >= -1e-9
      | Simplex.Unbounded -> true (* possible when a column is missing from all rows *)
      | Simplex.Infeasible -> false)

(* dcs vs simplex oracle: earliest solution of a chain system equals the
   LP minimizing the sum of variables *)
let test_dcs_vs_simplex_oracle () =
  let t = Dcs.create ~default_upper:1000.0 3 in
  Dcs.add_lower t 0 1.0;
  Dcs.add_le t 0 1 (-2.0);
  Dcs.add_le t 1 2 (-0.5);
  let e = solve_ok t `Earliest in
  let p =
    {
      Simplex.num_vars = 3;
      objective = [ (0, 1.0); (1, 1.0); (2, 1.0) ];
      minimize = true;
      constraints =
        [
          { Simplex.coeffs = [ (0, 1.0) ]; relation = Simplex.Ge; rhs = 1.0 };
          { Simplex.coeffs = [ (1, 1.0); (0, -1.0) ]; relation = Simplex.Ge; rhs = 2.0 };
          { Simplex.coeffs = [ (2, 1.0); (1, -1.0) ]; relation = Simplex.Ge; rhs = 0.5 };
        ];
    }
  in
  let _, x = solve_simplex p in
  Array.iteri
    (fun i xi -> check_close (Printf.sprintf "var %d" i) xi e.(i))
    x

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "qnet_lp"
    [
      ( "difference-constraints",
        [
          Alcotest.test_case "empty system" `Quick test_dcs_empty_feasible;
          Alcotest.test_case "chain" `Quick test_dcs_chain;
          Alcotest.test_case "latest vs earliest" `Quick test_dcs_latest_vs_earliest;
          Alcotest.test_case "centered feasible" `Quick test_dcs_centered_feasible;
          Alcotest.test_case "negative cycle" `Quick test_dcs_infeasible_cycle;
          Alcotest.test_case "contradictory bounds" `Quick test_dcs_infeasible_bounds;
          Alcotest.test_case "bound interaction" `Quick test_dcs_upper_lower_interaction;
          Alcotest.test_case "check detects violation" `Quick test_dcs_check_detects_violation;
          Alcotest.test_case "bad variable" `Quick test_dcs_bad_variable_rejected;
          Alcotest.test_case "visiting order" `Quick test_dcs_visiting_order;
          Alcotest.test_case "20k-var chain fast" `Slow test_dcs_large_chain_performance;
          qc qcheck_dcs_solution_feasible;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "textbook max" `Quick test_simplex_textbook_max;
          Alcotest.test_case "min with >=" `Quick test_simplex_min_with_ge;
          Alcotest.test_case "equalities" `Quick test_simplex_equality;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "degenerate no cycling" `Quick test_simplex_degenerate;
          Alcotest.test_case "free variables" `Quick test_simplex_free_variables;
          Alcotest.test_case "input validation" `Quick test_simplex_rejects_bad_input;
          Alcotest.test_case "dcs/simplex oracle" `Quick test_dcs_vs_simplex_oracle;
          qc qcheck_simplex_beats_random_feasible;
        ] );
    ]
