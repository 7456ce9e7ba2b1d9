let check_samples name xs =
  if Array.length xs = 0 then invalid_arg (name ^ ": empty sample");
  Array.iter
    (fun x ->
      if not (x > 0.0 && Float.is_finite x) then
        invalid_arg (name ^ ": samples must be strictly positive and finite"))
    xs

let mean xs = Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

let fit_exponential xs =
  check_samples "Fitting.fit_exponential" xs;
  Distributions.Exponential (1.0 /. mean xs)

let fit_erlang ~shape xs =
  if shape < 1 then invalid_arg "Fitting.fit_erlang: shape must be >= 1";
  check_samples "Fitting.fit_erlang" xs;
  Distributions.Erlang (shape, float_of_int shape /. mean xs)

let fit_lognormal xs =
  check_samples "Fitting.fit_lognormal" xs;
  let logs = Array.map log xs in
  let mu = mean logs in
  let var =
    Array.fold_left (fun acc l -> acc +. ((l -. mu) *. (l -. mu))) 0.0 logs
    /. float_of_int (Array.length logs)
  in
  Distributions.Lognormal (mu, Float.max (sqrt var) 1e-6)

let fit_gamma xs =
  check_samples "Fitting.fit_gamma" xs;
  let xbar = mean xs in
  let log_xbar = log xbar in
  let mean_log = mean (Array.map log xs) in
  let s = log_xbar -. mean_log in
  if s <= 0.0 then
    (* numerically constant sample: an arbitrarily peaked Gamma; cap it *)
    Distributions.Gamma (1e6, 1e6 /. xbar)
  else begin
    (* Minka's starting point, then at most 100 Newton steps on
       f(k) = log k - psi k - s, stopping at a relative step of 1e-10 *)
    let k0 = (3.0 -. s +. sqrt (((s -. 3.0) ** 2.0) +. (24.0 *. s))) /. (12.0 *. s) in
    let rec newton k iter =
      if iter = 0 then k
      else begin
        let f = log k -. Special.digamma k -. s in
        let f' = (1.0 /. k) -. Special.trigamma k in
        let k' = k -. (f /. f') in
        if not (k' > 0.0 && Float.is_finite k') then k
        else if Float.abs (k' -. k) < 1e-10 *. k then k'
        else newton k' (iter - 1)
      end
    in
    let k = newton (Float.max k0 1e-3) 100 in
    Distributions.Gamma (k, k /. xbar)
  end

let log_likelihood d xs =
  Array.fold_left (fun acc x -> acc +. Distributions.log_pdf d x) 0.0 xs

let aic d ~num_params xs =
  (2.0 *. float_of_int num_params) -. (2.0 *. log_likelihood d xs)
