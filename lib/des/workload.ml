module Rng = Qnet_prob.Rng
module D = Qnet_prob.Distributions

type t =
  | Poisson of float
  | Ramp of { initial_rate : float; final_rate : float; duration : float }
  | Mmpp2 of { rate0 : float; rate1 : float; switch01 : float; switch10 : float }
  | Interarrival of D.t

let validate = function
  | Poisson rate -> if rate > 0.0 then Ok () else Error "Poisson: rate must be > 0"
  | Ramp { initial_rate; final_rate; duration } ->
      if initial_rate < 0.0 then Error "Ramp: initial_rate must be >= 0"
      else if final_rate <= 0.0 then Error "Ramp: final_rate must be > 0"
      else if duration <= 0.0 then Error "Ramp: duration must be > 0"
      else Ok ()
  | Mmpp2 { rate0; rate1; switch01; switch10 } ->
      if rate0 <= 0.0 || rate1 <= 0.0 then Error "Mmpp2: rates must be > 0"
      else if switch01 <= 0.0 || switch10 <= 0.0 then
        Error "Mmpp2: switching rates must be > 0"
      else Ok ()
  | Interarrival d -> D.validate d

let exp_draw rng rate = -.log (Rng.float_pos rng) /. rate

let generate rng w n =
  (match validate w with Ok () -> () | Error m -> invalid_arg ("Workload.generate: " ^ m));
  if n < 0 then invalid_arg "Workload.generate: negative count";
  let out = Array.make n 0.0 in
  (match w with
  | Poisson rate ->
      let t = ref 0.0 in
      for i = 0 to n - 1 do
        t := !t +. exp_draw rng rate;
        out.(i) <- !t
      done
  | Ramp { initial_rate; final_rate; duration } ->
      (* Thinning against the maximal rate. *)
      let rate_at t =
        if t >= duration then final_rate
        else initial_rate +. ((final_rate -. initial_rate) *. t /. duration)
      in
      let rate_max = Float.max initial_rate final_rate in
      let t = ref 0.0 in
      let i = ref 0 in
      while !i < n do
        t := !t +. exp_draw rng rate_max;
        if Rng.float_unit rng *. rate_max <= rate_at !t then begin
          out.(!i) <- !t;
          incr i
        end
      done
  | Mmpp2 { rate0; rate1; switch01; switch10 } ->
      let t = ref 0.0 in
      let phase = ref 0 in
      let i = ref 0 in
      while !i < n do
        let rate, switch =
          if !phase = 0 then (rate0, switch01) else (rate1, switch10)
        in
        let next_arrival = exp_draw rng rate in
        let next_switch = exp_draw rng switch in
        if next_arrival <= next_switch then begin
          t := !t +. next_arrival;
          out.(!i) <- !t;
          incr i
        end
        else begin
          t := !t +. next_switch;
          phase := 1 - !phase
        end
      done
  | Interarrival d ->
      let t = ref 0.0 in
      for i = 0 to n - 1 do
        let gap = D.sample rng d in
        let gap = if gap > 0.0 then gap else Float.min_float in
        t := !t +. gap;
        out.(i) <- !t
      done);
  out
