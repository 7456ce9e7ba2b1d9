module Welford = struct
  type t = {
    mutable n : int;
    mutable mu : float;
    mutable m2 : float;
    mutable lo : float;
    mutable hi : float;
    mutable skipped : int;
  }

  let create () =
    { n = 0; mu = 0.0; m2 = 0.0; lo = infinity; hi = neg_infinity; skipped = 0 }

  let add t x =
    if Float.is_nan x then t.skipped <- t.skipped + 1
    else begin
      t.n <- t.n + 1;
      let delta = x -. t.mu in
      t.mu <- t.mu +. (delta /. float_of_int t.n);
      t.m2 <- t.m2 +. (delta *. (x -. t.mu));
      if x < t.lo then t.lo <- x;
      if x > t.hi then t.hi <- x
    end

  let count t = t.n
  let skipped t = t.skipped
  let mean t = if t.n = 0 then nan else t.mu
  let variance t = if t.n < 2 then nan else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.lo
  let max t = t.hi

  let merge a b =
    let skipped = a.skipped + b.skipped in
    if a.n = 0 then { b with skipped }
    else if b.n = 0 then { a with skipped }
    else begin
      let n = a.n + b.n in
      let fa = float_of_int a.n and fb = float_of_int b.n in
      let delta = b.mu -. a.mu in
      let mu = a.mu +. (delta *. fb /. float_of_int n) in
      let m2 = a.m2 +. b.m2 +. (delta *. delta *. fa *. fb /. float_of_int n) in
      { n; mu; m2; lo = Float.min a.lo b.lo; hi = Float.max a.hi b.hi; skipped }
    end
end

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

let variance xs =
  let n = Array.length xs in
  if n < 2 then nan
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    acc /. float_of_int (n - 1)
  end

let stddev xs = sqrt (variance xs)

let quantile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Statistics.quantile: empty input";
  if p < 0.0 || p > 1.0 || Float.is_nan p then
    invalid_arg "Statistics.quantile: p outside [0,1]";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  if n = 1 then sorted.(0)
  else begin
    let h = p *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor h) in
    let i = Stdlib.min i (n - 2) in
    let frac = h -. float_of_int i in
    sorted.(i) +. (frac *. (sorted.(i + 1) -. sorted.(i)))
  end

let median xs = quantile xs 0.5
let histogram ?(bins = 20) xs =
  if bins <= 0 then invalid_arg "Statistics.histogram: bins must be positive";
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let lo = Array.fold_left Float.min infinity xs in
    let hi = Array.fold_left Float.max neg_infinity xs in
    let hi = if hi > lo then hi else lo +. 1.0 in
    let width = (hi -. lo) /. float_of_int bins in
    let counts = Array.make bins 0 in
    Array.iter
      (fun x ->
        let i = int_of_float ((x -. lo) /. width) in
        let i = Stdlib.max 0 (Stdlib.min (bins - 1) i) in
        counts.(i) <- counts.(i) + 1)
      xs;
    Array.init bins (fun i ->
        (lo +. (float_of_int i *. width), lo +. (float_of_int (i + 1) *. width), counts.(i)))
  end

let ks_statistic_against xs cdf =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Statistics.ks_statistic_against: empty input";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let fn = float_of_int n in
  let d = ref 0.0 in
  Array.iteri
    (fun i x ->
      let f = cdf x in
      let above = (float_of_int (i + 1) /. fn) -. f in
      let below = f -. (float_of_int i /. fn) in
      if above > !d then d := above;
      if below > !d then d := below)
    sorted;
  !d

let ks_two_sample xs ys =
  let nx = Array.length xs and ny = Array.length ys in
  if nx = 0 || ny = 0 then invalid_arg "Statistics.ks_two_sample: empty input";
  let sx = Array.copy xs and sy = Array.copy ys in
  Array.sort compare sx;
  Array.sort compare sy;
  let fx = float_of_int nx and fy = float_of_int ny in
  let rec walk i j d =
    if i >= nx || j >= ny then d
    else begin
      let xi = sx.(i) and yj = sy.(j) in
      let i', j' =
        if xi <= yj then (i + 1, j) else (i, j + 1)
      in
      let i', j' =
        (* advance past ties on both sides together *)
        if xi = yj then (i + 1, j + 1) else (i', j')
      in
      let diff =
        Float.abs ((float_of_int i' /. fx) -. (float_of_int j' /. fy))
      in
      walk i' j' (Float.max d diff)
    end
  in
  walk 0 0 0.0

let autocorrelation xs k =
  let n = Array.length xs in
  if k < 0 || k >= n then invalid_arg "Statistics.autocorrelation: bad lag";
  let m = mean xs in
  let denom = Array.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
  if Float.equal denom 0.0 then 0.0
  else begin
    let num = ref 0.0 in
    for i = 0 to n - k - 1 do
      num := !num +. ((xs.(i) -. m) *. (xs.(i + k) -. m))
    done;
    !num /. denom
  end

let effective_sample_size xs =
  let n = Array.length xs in
  if n < 4 then float_of_int n
  else begin
    (* Geyer initial positive sequence: sum consecutive-pair
       autocorrelations while the pair sums stay positive. *)
    let max_lag = Stdlib.min (n - 2) 1000 in
    let rec accumulate k acc =
      if k + 1 > max_lag then acc
      else
        let pair = autocorrelation xs k +. autocorrelation xs (k + 1) in
        if pair <= 0.0 then acc else accumulate (k + 2) (acc +. pair)
    in
    let s = accumulate 1 0.0 in
    let tau = 1.0 +. (2.0 *. s) in
    let tau = Float.max tau 1.0 in
    float_of_int n /. tau
  end

let gelman_rubin chains =
  let m = Array.length chains in
  if m < 2 then invalid_arg "Statistics.gelman_rubin: need >= 2 chains";
  let n = Array.length chains.(0) in
  if n < 2 then invalid_arg "Statistics.gelman_rubin: chains too short";
  Array.iter
    (fun c ->
      if Array.length c <> n then
        invalid_arg "Statistics.gelman_rubin: unequal chain lengths")
    chains;
  let fm = float_of_int m and fn = float_of_int n in
  let chain_means = Array.map mean chains in
  let grand = mean chain_means in
  let b =
    fn /. (fm -. 1.0)
    *. Array.fold_left
         (fun acc mu -> acc +. ((mu -. grand) *. (mu -. grand)))
         0.0 chain_means
  in
  let w = mean (Array.map variance chains) in
  if Float.equal w 0.0 then 1.0
  else
    let var_plus = (((fn -. 1.0) /. fn) *. w) +. (b /. fn) in
    sqrt (var_plus /. w)

let split_gelman_rubin chains =
  let m = Array.length chains in
  if m < 1 then invalid_arg "Statistics.split_gelman_rubin: need >= 1 chain";
  let n = Array.fold_left (fun acc c -> Stdlib.min acc (Array.length c)) max_int chains in
  let half = n / 2 in
  if half < 2 then invalid_arg "Statistics.split_gelman_rubin: chains too short";
  (* Use the most recent [2*half] samples of each chain (chains may
     have unequal lengths after restarts), split each in half, and run
     classic R̂ over the 2m half-chains. Splitting detects within-chain
     drift — a single wandering chain — that whole-chain R̂ misses, and
     makes the statistic well-defined even for a single chain. *)
  let halves =
    Array.concat
      (Array.to_list
         (Array.map
            (fun c ->
              let len = Array.length c in
              [| Array.sub c (len - (2 * half)) half; Array.sub c (len - half) half |])
            chains))
  in
  gelman_rubin halves

let pooled_effective_sample_size chains =
  if Array.length chains = 0 then
    invalid_arg "Statistics.pooled_effective_sample_size: need >= 1 chain";
  Array.fold_left (fun acc c -> acc +. effective_sample_size c) 0.0 chains

module Online = struct
  (* Streaming lag-k autocovariance: a ring of the last [max_lag]
     accepted values plus running cross-product sums per lag. The
     autocovariance estimate γ̂_k = S_k/(n−k) − μ² uses the global mean
     for both factors instead of the two range means the batch
     estimator centers with — an O(1/n) approximation that converges
     to the batch value and is the standard streaming form. *)
  type acf = {
    max_lag : int;
    ring : float array;
    cross : float array; (* cross.(k) = Σ_{i>=k} x_i·x_{i−k}, k in [1,max_lag] *)
    mutable n : int;
    mutable sum : float;
    mutable sumsq : float;
    mutable skipped : int;
  }

  let acf ?(max_lag = 64) () =
    if max_lag < 1 then invalid_arg "Statistics.Online.acf: max_lag must be >= 1";
    {
      max_lag;
      ring = Array.make max_lag 0.0;
      cross = Array.make (max_lag + 1) 0.0;
      n = 0;
      sum = 0.0;
      sumsq = 0.0;
      skipped = 0;
    }

  let push t x =
    if not (Float.is_finite x) then t.skipped <- t.skipped + 1
    else begin
      let lags = Stdlib.min t.n t.max_lag in
      for k = 1 to lags do
        t.cross.(k) <- t.cross.(k) +. (x *. t.ring.((t.n - k) mod t.max_lag))
      done;
      t.ring.(t.n mod t.max_lag) <- x;
      t.n <- t.n + 1;
      t.sum <- t.sum +. x;
      t.sumsq <- t.sumsq +. (x *. x)
    end

  let count t = t.n
  let skipped t = t.skipped
  let mean t = if t.n = 0 then nan else t.sum /. float_of_int t.n

  let autocovariance t k =
    if k < 0 || k > t.max_lag then
      invalid_arg "Statistics.Online.autocovariance: lag outside [0, max_lag]";
    if t.n <= k then nan
    else begin
      let mu = mean t in
      if k = 0 then (t.sumsq /. float_of_int t.n) -. (mu *. mu)
      else (t.cross.(k) /. float_of_int (t.n - k)) -. (mu *. mu)
    end

  let autocorrelation t k =
    let g0 = autocovariance t 0 in
    if t.n <= k then nan
    else if not (g0 > 0.0) then 0.0 (* constant series, or fp-degenerate *)
    else
      (* The global-mean approximation can push γ̂_k past γ̂_0 while the
         series still trends (early StEM iterates); a correlation is
         clamped into [-1, 1] so downstream ESS/display stay sane. *)
      Float.max (-1.0) (Float.min 1.0 (autocovariance t k /. g0))

  let ess t =
    if t.n = 0 then 0.0
    else if t.n < 4 then float_of_int t.n
    else begin
      let g0 = autocovariance t 0 in
      if not (g0 > 0.0) then float_of_int t.n
      else begin
        let max_lag = Stdlib.min t.max_lag (t.n - 2) in
        let rec accumulate k acc =
          if k + 1 > max_lag then acc
          else
            let pair = autocorrelation t k +. autocorrelation t (k + 1) in
            if pair <= 0.0 then acc else accumulate (k + 2) (acc +. pair)
        in
        let tau = Float.max 1.0 (1.0 +. (2.0 *. accumulate 1 0.0)) in
        (* clamp into [1, n], matching the batch estimator *)
        Float.max 1.0
          (Float.min (float_of_int t.n) (float_of_int t.n /. tau))
      end
    end
end
