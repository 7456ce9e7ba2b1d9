module Rng = Qnet_prob.Rng
module Piecewise = Qnet_prob.Piecewise
module Store = Event_store
module Metrics = Qnet_obs.Metrics
module Clock = Qnet_obs.Clock
module Span = Qnet_obs.Span

(* Telemetry handles, created on first use. Hot-path sites are gated
   on [Metrics.enabled] — one atomic load when instrumentation is off. *)
let sweep_buckets = [| 1e-5; 1e-4; 1e-3; 1e-2; 0.1; 1.0; 10.0 |]

let m_sweep_seconds =
  lazy
    (Metrics.Histogram.create ~buckets:sweep_buckets
       ~help:"Wall time of one Gibbs sweep over the unobserved events"
       "qnet_gibbs_sweep_seconds")

let m_event_seconds =
  lazy
    (Metrics.Histogram.create
       ~buckets:[| 1e-7; 1e-6; 1e-5; 1e-4; 1e-3; 1e-2 |]
       ~help:"Wall time to rebuild and resample one event's conditional"
       "qnet_gibbs_event_seconds")

let m_events =
  lazy
    (Metrics.Counter.create
       ~help:"Unobserved events resampled by Gibbs sweeps"
       "qnet_gibbs_events_resampled_total")

let m_kernel kind =
  Metrics.Counter.create ~labels:[ ("kind", kind) ]
    ~help:"Compiled conditional kind drawn from (point/tail/bounded)"
    "qnet_gibbs_kernel_total"

(* Indexed by the production kernel's kind codes (below). *)
let m_kernel_kinds =
  [| lazy (m_kernel "point"); lazy (m_kernel "tail"); lazy (m_kernel "bounded") |]

let register_metrics () =
  ignore (Lazy.force m_sweep_seconds : Metrics.Histogram.t);
  ignore (Lazy.force m_event_seconds : Metrics.Histogram.t);
  ignore (Lazy.force m_events : Metrics.Counter.t);
  Array.iter (fun m -> ignore (Lazy.force m : Metrics.Counter.t)) m_kernel_kinds

(* ------------------------------------------------------------------ *)
(* The reference: the conditional as data, compiled by Piecewise. The
   production kernel below must agree with [sample_compiled (compile
   (local_density ...))] bit for bit; tests check that, and nothing on
   the sweep path calls these. *)

type local_density = {
  event : int;
  lower : float;
  upper : float option;
  linear : float;
  hinges : Piecewise.hinge list;
}

let local_density store params f =
  if Store.observed store f then
    invalid_arg "Gibbs.local_density: event is observed";
  let mu_f = Params.rate params (Store.queue store f) in
  let lower = ref (Store.start_service store f) in
  let upper = ref None in
  let linear = ref (-.mu_f) in
  let hinges = ref [] in
  let tighten_upper u =
    match !upper with
    | None -> upper := Some u
    | Some u0 -> if u < u0 then upper := Some u
  in
  let e = Store.pi_inv store f in
  let g = Store.rho_inv store f in
  (* Within-task successor e: its arrival is the value being moved. *)
  if e >= 0 then begin
    let mu_e = Params.rate params (Store.queue store e) in
    tighten_upper (Store.departure store e);
    let rho_e = Store.rho store e in
    if rho_e = f then
      (* The task queues directly behind itself: e's service starts at
         max(d, d) = d, so the term is linear in d with no breakpoint. *)
      linear := !linear +. mu_e
    else if rho_e < 0 then
      (* e is the first arrival at its queue: service starts at a_e = d. *)
      linear := !linear +. mu_e
    else begin
      (* Breakpoint where d overtakes the previous departure at e's
         queue; below it the term is constant. *)
      hinges := { Piecewise.knee = Store.departure store rho_e; slope = mu_e } :: !hinges;
      (* Keep e's position in its queue's arrival order. *)
      lower := Float.max !lower (Store.arrival store rho_e)
    end;
    let next_e = Store.rho_inv store e in
    if next_e >= 0 then tighten_upper (Store.arrival store next_e)
  end;
  (* Within-queue successor g: its FIFO service start is max(a_g, d). *)
  if g >= 0 && g <> e then begin
    tighten_upper (Store.departure store g);
    hinges := { Piecewise.knee = Store.arrival store g; slope = mu_f } :: !hinges
  end;
  { event = f; lower = !lower; upper = !upper; linear = !linear; hinges = !hinges }

let degenerate_width = 1e-12

let compile ld =
  match ld.upper with
  | None ->
      (* Only the self term remains: an exponential tail with rate
         mu_f = -linear (no hinges can exist without e or g). *)
      assert (ld.hinges = []);
      let rate = -.ld.linear in
      if Float.is_finite ld.lower && rate > 0.0 && Float.is_finite rate then
        `Tail (ld.lower, rate)
      else `Point ld.lower
  | Some u ->
      (* [not (width > eps)] rather than [width <= eps]: a NaN bound
         (corrupted latent state) must also collapse to a point rather
         than reach Piecewise.compile or poison the sample. *)
      if not (u -. ld.lower > degenerate_width) then
        `Point (if Float.is_nan ld.lower then u else ld.lower)
      else if not (Float.is_finite ld.lower && Float.is_finite u) then
        `Point (if Float.is_finite ld.lower then ld.lower else u)
      else
        `Bounded
          (Piecewise.compile ~lower:ld.lower ~upper:u ~linear:ld.linear
             ~hinges:ld.hinges)

let log_conditional ld x =
  let inside =
    x >= ld.lower && (match ld.upper with None -> true | Some u -> x <= u)
  in
  if not inside then neg_infinity
  else
    List.fold_left
      (fun acc { Piecewise.knee; slope } ->
        acc +. (slope *. Float.max 0.0 (x -. knee)))
      (ld.linear *. x) ld.hinges

let sample_compiled rng compiled =
  match compiled with
  | `Point x -> x
  | `Tail (origin, rate) -> origin +. (-.log (Rng.float_pos rng) /. rate)
  | `Bounded pw -> Piecewise.sample rng pw

(* ------------------------------------------------------------------ *)
(* The production kernel (DESIGN.md section 2): the reference's
   arithmetic, operation for operation and draw for draw, specialised
   to the at most two hinges and three pieces a move produces, and
   allocating nothing. Like Piecewise it works in linear space: an exp
   and an expm1 per piece mass, the masses handed unnormalised to the
   categorical draw, and one log1p (plus an expm1 for a rising piece)
   to invert; a three-piece move makes 7-8 such calls. The default
   build compiles with -opaque, so a float passed to or returned from
   a function of another compilation unit is boxed. The kernel
   therefore reads the store's arrays and [Params.rates] in place,
   draws through the int-returning [Rng.bits53], keeps every
   intermediate in a float scratch the caller owns, and calls only
   helpers that are inlined into it or that take and return no
   floats. *)

(* Scratch layout. The hinges are (knee, slope) pairs in the
   reference's list order, g's before e's. *)
let s_lower = 0
let s_upper = 1
let s_linear = 2
let s_hinge = 3 (* 2 pairs *)
let s_break = 7 (* 4 piece boundaries *)
let s_rate = 11 (* 3 piece slopes *)
let s_logval = 14 (* 4 log-densities at the boundaries *)
let s_mass = 18 (* 3 piece masses *)
let s_expm1 = 21 (* 3 expm1 (rate * width), kept for the falling pieces *)
let s_acc = 24 (* loop accumulator *)
let s_draw = 25 (* the kernel's result *)
let scratch_len = 26

(* Kernel kinds, as indices into [m_kernel_kinds]. *)
let kind_point = 0
let kind_tail = 1
let kind_bounded = 2

(* [Event_store.arrival] on the view's arrays. *)
let[@inline] arrival d pi i =
  let p = pi.(i) in
  if p < 0 then 0.0 else d.(p)

(* [Float.max] and [Float.min] without their C call ([caml_signbit],
   made whenever [y > x] fails, which spills every live float
   register): [Event_store.fmax]'s bits, each unit with its own copy. *)
let[@inline] fmax (x : float) y =
  if y > x then y
  else if x > y then x
  else if x = y && Float.abs x > 0.0 then x
  else (* two zeros, whose sum is their max, or a NaN *) x +. y

let[@inline] fmin (x : float) y =
  if x < y then x
  else if y < x then y
  else if x = y && Float.abs x > 0.0 then y
  else (* two zeros, -0 if either is, or a NaN *) -.(-.x -. y)

(* The feasibility window of event [f]: L to [s_lower], U to [s_upper];
   returns whether U exists. The comparisons of [local_density], in its
   order. *)
let bounds sc (v : Store.view) f =
  let d = v.Store.v_departure and pi = v.Store.v_pi in
  let rho = v.Store.v_rho and rho_inv = v.Store.v_rho_inv in
  let a = arrival d pi f and r = rho.(f) in
  sc.(s_lower) <- (if r < 0 then a else fmax a d.(r));
  let e = v.Store.v_pi_inv.(f) in
  if e >= 0 then begin
    sc.(s_upper) <- d.(e);
    let rho_e = rho.(e) in
    if rho_e >= 0 && rho_e <> f then
      sc.(s_lower) <- fmax sc.(s_lower) (arrival d pi rho_e);
    let next_e = rho_inv.(e) in
    if next_e >= 0 then begin
      let a = arrival d pi next_e in
      if a < sc.(s_upper) then sc.(s_upper) <- a
    end
  end;
  let g = rho_inv.(f) in
  if g >= 0 && g <> e then begin
    let u = d.(g) in
    if e < 0 || u < sc.(s_upper) then sc.(s_upper) <- u;
    true
  end
  else e >= 0

(* The slope and hinges of the log-density, as [local_density] builds
   them; returns the number of hinges. *)
let terms sc (v : Store.view) (rates : float array) f =
  let d = v.Store.v_departure and queue = v.Store.v_queue in
  let mu_f = rates.(queue.(f)) in
  sc.(s_linear) <- -.mu_f;
  let e = v.Store.v_pi_inv.(f) in
  (* e's hinge goes to the second pair: the reference conses g's in
     front of it *)
  let e_hinge =
    e >= 0
    &&
    let mu_e = rates.(queue.(e)) in
    let rho_e = v.Store.v_rho.(e) in
    if rho_e = f || rho_e < 0 then begin
      sc.(s_linear) <- sc.(s_linear) +. mu_e;
      false
    end
    else begin
      sc.(s_hinge + 2) <- d.(rho_e);
      sc.(s_hinge + 3) <- mu_e;
      true
    end
  in
  let g = v.Store.v_rho_inv.(f) in
  if g >= 0 && g <> e then begin
    sc.(s_hinge) <- arrival d v.Store.v_pi g;
    sc.(s_hinge + 1) <- mu_f;
    if e_hinge then 2 else 1
  end
  else if e_hinge then begin
    sc.(s_hinge) <- sc.(s_hinge + 2);
    sc.(s_hinge + 1) <- sc.(s_hinge + 3);
    1
  end
  else 0

(* [Rng.float_unit] from the int draw: no float crosses from Rng. *)
let[@inline] float_unit rng = float_of_int (Rng.bits53 rng) *. 0x1p-53

let tiny_rate_width = 1e-12

(* Rng.categorical over the [n] weights at [s_mass]: the same checks,
   the same single draw, the same scan. *)
let categorical sc rng n =
  sc.(s_acc) <- 0.0;
  for i = 0 to n - 1 do
    let x = sc.(s_mass + i) in
    if x < 0.0 || Float.is_nan x then invalid_arg "Rng.categorical: negative weight";
    sc.(s_acc) <- sc.(s_acc) +. x
  done;
  if sc.(s_acc) <= 0.0 then invalid_arg "Rng.categorical: no positive weight";
  let u = float_unit rng *. sc.(s_acc) in
  sc.(s_acc) <- 0.0;
  let i = ref 0 and found = ref false in
  while not !found do
    if !i >= n - 1 then found := true
    else begin
      sc.(s_acc) <- sc.(s_acc) +. sc.(s_mass + !i);
      if u < sc.(s_acc) then found := true else incr i
    end
  done;
  (* all the mass may sit in trailing zero weights *)
  while not (sc.(s_mass + !i) > 0.0) do
    decr i
  done;
  !i

(* Piecewise.sample's choice of piece, by the masses Piecewise.compile
   computes for the [n] pieces in [sc]. A falling piece's expm1 goes to
   [s_expm1], where the inversion finds it. *)
let pick_piece sc rng n =
  (* log-density at each break, re-centred so the largest is 0 *)
  sc.(s_logval) <- 0.0;
  for i = 0 to n - 1 do
    sc.(s_logval + i + 1) <-
      sc.(s_logval + i) +. (sc.(s_rate + i) *. (sc.(s_break + i + 1) -. sc.(s_break + i)))
  done;
  sc.(s_acc) <- neg_infinity;
  for i = 0 to n do
    if not (sc.(s_acc) >= sc.(s_logval + i)) then sc.(s_acc) <- sc.(s_logval + i)
  done;
  for i = 0 to n do
    sc.(s_logval + i) <- sc.(s_logval + i) -. sc.(s_acc)
  done;
  (* Piecewise.piece_mass *)
  for i = 0 to n - 1 do
    let r = sc.(s_rate + i) in
    let w = sc.(s_break + i + 1) -. sc.(s_break + i) in
    let rw = r *. w in
    if Float.abs rw < tiny_rate_width then
      sc.(s_mass + i) <- exp (sc.(s_logval + i) +. (0.5 *. rw)) *. w
    else if r > 0.0 then
      sc.(s_mass + i) <- exp sc.(s_logval + i + 1) *. (-.Float.expm1 (-.rw) /. r)
    else begin
      sc.(s_expm1 + i) <- Float.expm1 rw;
      sc.(s_mass + i) <- exp sc.(s_logval + i) *. (sc.(s_expm1 + i) /. r)
    end
  done;
  categorical sc rng n

(* Piecewise.compile then Piecewise.sample on the finite window in [sc]
   with [nh] hinges; the draw goes to [s_draw]. *)
let sample_window sc rng nh =
  let lower = sc.(s_lower) and upper = sc.(s_upper) in
  let k0 = sc.(s_hinge) and m0 = sc.(s_hinge + 1) in
  let k1 = sc.(s_hinge + 2) and m1 = sc.(s_hinge + 3) in
  (* hinges with a non-finite knee or slope are dropped *)
  let ok0 = nh >= 1 && Float.is_finite k0 && Float.is_finite m0 in
  let ok1 = nh >= 2 && Float.is_finite k1 && Float.is_finite m1 in
  (* a knee left of the window acts on every point *)
  let base = sc.(s_linear) in
  let base = if ok0 && k0 <= lower then base +. m0 else base in
  let base = if ok1 && k1 <= lower then base +. m1 else base in
  (* interior knees become breaks: sorted, a repeated knee kept once *)
  let in0 = ok0 && k0 > lower && k0 < upper && not (Float.equal m0 0.0) in
  let in1 = ok1 && k1 > lower && k1 < upper && not (Float.equal m1 0.0) in
  sc.(s_break) <- lower;
  let n =
    if in0 && in1 then begin
      let c = Float.compare k0 k1 in
      if c = 0 then begin
        sc.(s_break + 1) <- k0;
        2
      end
      else begin
        sc.(s_break + 1) <- (if c < 0 then k0 else k1);
        sc.(s_break + 2) <- (if c < 0 then k1 else k0);
        3
      end
    end
    else if in0 then begin
      sc.(s_break + 1) <- k0;
      2
    end
    else if in1 then begin
      sc.(s_break + 1) <- k1;
      2
    end
    else 1
  in
  sc.(s_break + n) <- upper;
  (* an interior hinge adds its slope to every piece from its knee on *)
  for i = 0 to n - 1 do
    let b = sc.(s_break + i) in
    let r = if in0 && b >= k0 then base +. m0 else base in
    sc.(s_rate + i) <- (if in1 && b >= k1 then r +. m1 else r)
  done;
  let i = if n = 1 then 0 else pick_piece sc rng n in
  let q = float_unit rng in
  (* Piecewise.invert_piece, reusing a falling piece's expm1 *)
  let r = sc.(s_rate + i) in
  let w = sc.(s_break + i + 1) -. sc.(s_break + i) in
  let rw = r *. w in
  let y =
    if q <= 0.0 then 0.0
    else if Float.abs rw < tiny_rate_width then q *. w
    else begin
      let em = if r > 0.0 || n = 1 then Float.expm1 rw else sc.(s_expm1 + i) in
      let y = if em < infinity then Float.log1p (q *. em) /. r else w +. (log q /. r) in
      fmax 0.0 (fmin w y)
    end
  in
  sc.(s_draw) <- sc.(s_break + i) +. y

(* One move on event [f]: the draw goes to [s_draw]; returns the kernel
   kind. *)
let kernel sc (v : Store.view) rates rng f =
  if v.Store.v_observed.(f) then invalid_arg "Gibbs.local_density: event is observed";
  let bounded = bounds sc v f in
  let nh = terms sc v rates f in
  let lower = sc.(s_lower) in
  if not bounded then begin
    (* only the self term: an exponential tail with rate mu_f *)
    let rate = -.sc.(s_linear) in
    if Float.is_finite lower && rate > 0.0 && Float.is_finite rate then begin
      sc.(s_draw) <- lower +. (-.log (1.0 -. float_unit rng) /. rate);
      kind_tail
    end
    else begin
      sc.(s_draw) <- lower;
      kind_point
    end
  end
  else begin
    let upper = sc.(s_upper) in
    (* a degenerate, reversed or NaN window collapses to a point *)
    if not (upper -. lower > degenerate_width) then begin
      sc.(s_draw) <- (if Float.is_nan lower then upper else lower);
      kind_point
    end
    else if not (Float.is_finite lower && Float.is_finite upper) then begin
      sc.(s_draw) <- (if Float.is_finite lower then lower else upper);
      kind_point
    end
    else begin
      sample_window sc rng nh;
      kind_bounded
    end
  end

(* Telemetry fast path (DESIGN.md section 14): per-event clock reads
   and per-event counter bumps are too expensive to leave on. Instead
   the enabled loop (a) tallies kernel kinds into local ints and
   flushes one Counter.inc per kind per call, and (b) stride-samples
   the per-event timing: every [timing_stride]-th event is bracketed by
   raw clock reads and observed with the weight of the events it
   stands for, so the histogram's count still matches the true event
   count while paying for two gettimeofday calls per stride. The
   stride keeps that cost within the 5% metrics budget: at 32 it was
   about 5% of a 1k-event sweep once the kernel stopped allocating, at
   128 it is about 1%. *)
let timing_stride = 128

(* The one sweep loop, behind every entry point: resample the events of
   [order] in turn, writing each draw back under
   [Event_store.set_departure]'s checks. *)
let visit ~metrics rng store params order =
  let sc = Array.make scratch_len 0.0 in
  let v = Store.view store in
  let rates = params.Params.rates in
  let departure = v.Store.v_departure in
  let per_event = if metrics then Some (Lazy.force m_event_seconds) else None in
  let kinds = Array.make (Array.length m_kernel_kinds) 0 in
  let n = Array.length order in
  for k = 0 to n - 1 do
    let f = order.(k) in
    let timed = metrics && k land (timing_stride - 1) = 0 in
    let te = if timed then Clock.now_raw () else 0.0 in
    let kind = kernel sc v rates rng f in
    kinds.(kind) <- kinds.(kind) + 1;
    let x = sc.(s_draw) in
    if Float.is_nan x then invalid_arg "Event_store.set_departure: NaN";
    departure.(f) <- x;
    (* [timed] implies [metrics] implies the handle exists *)
    if timed then
      Metrics.Histogram.observe_n (Option.get per_event)
        ~n:(Int.min timing_stride (n - k))
        (Float.max 0.0 (Clock.now_raw () -. te))
  done;
  if metrics then
    Array.iteri
      (fun kind n ->
        if n > 0 then
          Metrics.Counter.inc ~by:(float_of_int n) (Lazy.force m_kernel_kinds.(kind)))
      kinds

let window store f =
  let sc = Array.make scratch_len 0.0 in
  let bounded = bounds sc (Store.view store) f in
  (sc.(s_lower), if bounded then Some sc.(s_upper) else None)

let sample_event rng store params f =
  let sc = Array.make scratch_len 0.0 in
  let kind = kernel sc (Store.view store) params.Params.rates rng f in
  if Metrics.enabled () then Metrics.Counter.inc (Lazy.force m_kernel_kinds.(kind));
  sc.(s_draw)

let resample_event rng store params f =
  visit ~metrics:(Metrics.enabled ()) rng store params [| f |]

let sweep ?(shuffle = false) rng store params =
  let order = if shuffle then Store.shuffled_latent store rng else Store.latent store in
  let n = Array.length order in
  let metrics = Metrics.enabled () in
  let go () =
    let t0 = if metrics then Clock.now () else 0.0 in
    visit ~metrics rng store params order;
    if metrics then begin
      Metrics.Histogram.observe (Lazy.force m_sweep_seconds) (Clock.now () -. t0);
      Metrics.Counter.inc ~by:(float_of_int n) (Lazy.force m_events)
    end
  in
  (* Plain path: zero clock reads, three atomic loads per sweep (the
     metrics switch and the phase's two). *)
  Span.with_span "gibbs.sweep" go

let run ?shuffle ~sweeps rng store params =
  if sweeps < 0 then invalid_arg "Gibbs.run: negative sweep count";
  for _ = 1 to sweeps do
    sweep ?shuffle rng store params
  done
