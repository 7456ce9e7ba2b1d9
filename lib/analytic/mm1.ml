let check_positive arrival_rate service_rate =
  if arrival_rate <= 0.0 || service_rate <= 0.0 then
    invalid_arg "Mm1: rates must be positive"

let check_stable arrival_rate service_rate =
  check_positive arrival_rate service_rate;
  if arrival_rate >= service_rate then
    invalid_arg "Mm1: unstable queue (arrival_rate >= service_rate)"

let utilization ~arrival_rate ~service_rate =
  check_positive arrival_rate service_rate;
  arrival_rate /. service_rate

let mean_response_time ~arrival_rate ~service_rate =
  check_stable arrival_rate service_rate;
  1.0 /. (service_rate -. arrival_rate)

let mean_waiting_time ~arrival_rate ~service_rate =
  check_stable arrival_rate service_rate;
  let rho = arrival_rate /. service_rate in
  rho /. (service_rate -. arrival_rate)

let response_time_cdf ~arrival_rate ~service_rate x =
  check_stable arrival_rate service_rate;
  if x <= 0.0 then 0.0 else -.Float.expm1 (-.(service_rate -. arrival_rate) *. x)
