module Statistics = Qnet_prob.Statistics

(* ------------------------------------------------------------------ *)
(* Bounded recent-sample window                                        *)
(* ------------------------------------------------------------------ *)

(* The window backs split-R̂ and quantiles: both want "the recent
   posterior", not the whole history (early StEM iterates are burn-in
   under parameter values long since abandoned). [n] counts accepted
   pushes forever; the buffer keeps the last [cap]. *)
type ring = { buf : float array; mutable n : int }

let ring_make cap = { buf = Array.make cap nan; n = 0 }

let ring_push r x =
  r.buf.(r.n mod Array.length r.buf) <- x;
  r.n <- r.n + 1

(* Chronological copy of the stored suffix. *)
let ring_window r =
  let cap = Array.length r.buf in
  let stored = Stdlib.min r.n cap in
  Array.init stored (fun i -> r.buf.((r.n - stored + i) mod cap))

(* ------------------------------------------------------------------ *)
(* Hub state                                                           *)
(* ------------------------------------------------------------------ *)

type chain_track = {
  chain : int;
  mutable iterations : int;
  mutable status : string;
  (* per-queue state, sized on the chain's first observation *)
  mutable service : ring array;
  mutable acfs : Statistics.Online.acf array;
  mutable waiting : Statistics.Welford.t array;
}

type gc_totals = {
  mutable minor_words : float;
  mutable promoted_words : float;
  mutable major_words : float;
  mutable minor_collections : int;
  mutable major_collections : int;
  mutable compactions : int;
  mutable heap_words : int;
}

type t = {
  lock : Mutex.t;
  registry : Metrics.registry;
  window : int;
  publish_every : int;
  rhat_good : float;
  mutable chains : chain_track list; (* unordered; snapshot sorts *)
  mutable num_queues : int; (* -1 until first observation *)
  mutable arrival : int; (* -1 until told *)
  mutable ensemble_status : string;
  mutable t0 : float; (* first observation wall time; nan before *)
  mutable last_ts : float;
  mutable observations : int;
  mutable skipped : int;
  mutable sink : (string -> unit) option;
  mutable gc_base : Gc.stat option;
  gc : gc_totals;
}

let create ?(registry = Metrics.default) ?(window = 512) ?(publish_every = 10)
    ?(rhat_good = 1.05) () =
  if window < 8 then invalid_arg "Diagnostics.create: window must be >= 8";
  if publish_every < 1 then
    invalid_arg "Diagnostics.create: publish_every must be >= 1";
  {
    lock = Mutex.create ();
    registry;
    window;
    publish_every;
    rhat_good;
    chains = [];
    num_queues = -1;
    arrival = -1;
    ensemble_status = "running";
    t0 = nan;
    last_ts = nan;
    observations = 0;
    skipped = 0;
    sink = None;
    gc_base = None;
    gc =
      {
        minor_words = 0.0;
        promoted_words = 0.0;
        major_words = 0.0;
        minor_collections = 0;
        major_collections = 0;
        compactions = 0;
        heap_words = 0;
      };
  }

let default = create ()

let reset t =
  Mutex.protect t.lock (fun () ->
      t.chains <- [];
      t.num_queues <- -1;
      t.arrival <- -1;
      t.ensemble_status <- "running";
      t.t0 <- nan;
      t.last_ts <- nan;
      t.observations <- 0;
      t.skipped <- 0;
      t.gc_base <- None;
      let g = t.gc in
      g.minor_words <- 0.0;
      g.promoted_words <- 0.0;
      g.major_words <- 0.0;
      g.minor_collections <- 0;
      g.major_collections <- 0;
      g.compactions <- 0;
      g.heap_words <- 0)

let set_arrival_queue t q = Mutex.protect t.lock (fun () -> t.arrival <- q)
let set_ensemble_status t s = Mutex.protect t.lock (fun () -> t.ensemble_status <- s)
let set_sink t s = Mutex.protect t.lock (fun () -> t.sink <- s)

(* Requires the lock. Tracks can exist before their dimensions are
   known (a supervisor verdict can land before the first sample). *)
let track_locked t ~chain =
  match List.find_opt (fun c -> c.chain = chain) t.chains with
  | Some c -> c
  | None ->
      let c =
        {
          chain;
          iterations = 0;
          status = "healthy";
          service = [||];
          acfs = [||];
          waiting = [||];
        }
      in
      t.chains <- c :: t.chains;
      c

let set_chain_status t ~chain status =
  Mutex.protect t.lock (fun () -> (track_locked t ~chain).status <- status)

(* ------------------------------------------------------------------ *)
(* Snapshot types                                                      *)
(* ------------------------------------------------------------------ *)

type queue_summary = {
  queue : int;
  samples : int;
  mean_service : float;
  service_q05 : float;
  service_q50 : float;
  service_q95 : float;
  mean_waiting : float;
  wait_fraction : float;
  rhat : float;
  ess : float;
  ess_per_sec : float;
  acf1 : float;
}

type gc_summary = {
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  compactions : int;
  heap_words : int;
}

type kernel_summary = {
  piecewise_bounded : float;
  piecewise_tail : float;
  piecewise_point : float;
  slice_steps : float;
  slice_shrinks : float;
}

type chain_summary = { chain : int; iterations : int; status : string }

type snapshot = {
  ts : float;
  wall_seconds : float;
  iterations_total : int;
  skipped_samples : int;
  ensemble_status : string;
  chains : chain_summary array;
  queues : queue_summary array;
  arrival_queue : int;
  max_rhat : float;
  converged : bool;
  bottleneck : int;
  gc : gc_summary;
  kernels : kernel_summary;
}

(* ------------------------------------------------------------------ *)
(* Snapshot computation (lock held)                                    *)
(* ------------------------------------------------------------------ *)

let finite_mean xs =
  let sum = ref 0.0 and n = ref 0 in
  List.iter
    (fun x ->
      if Float.is_finite x then begin
        sum := !sum +. x;
        incr n
      end)
    xs;
  if !n = 0 then nan else !sum /. float_of_int !n

let queue_summary_locked (t : t) ~wall q =
  let tracks = List.filter (fun c -> Array.length c.service > q) t.chains in
  (* split-R̂ over per-chain recent windows with at least 4 samples *)
  let windows =
    List.filter_map
      (fun c ->
        let w = ring_window c.service.(q) in
        if Array.length w >= 4 then Some w else None)
      tracks
  in
  let rhat =
    match windows with
    | [] -> nan
    | ws -> Statistics.split_gelman_rubin (Array.of_list ws)
  in
  let pooled = Array.concat (List.map (fun c -> ring_window c.service.(q)) tracks) in
  let q05, q50, q95 =
    if Array.length pooled = 0 then (nan, nan, nan)
    else
      ( Statistics.quantile pooled 0.05,
        Statistics.quantile pooled 0.50,
        Statistics.quantile pooled 0.95 )
  in
  (* pooled mean/ESS from the full-history one-pass accumulators *)
  let samples = ref 0 and sum = ref 0.0 and ess = ref 0.0 in
  List.iter
    (fun c ->
      let a = c.acfs.(q) in
      let n = Statistics.Online.count a in
      if n > 0 then begin
        samples := !samples + n;
        sum := !sum +. (Statistics.Online.mean a *. float_of_int n);
        let e = Statistics.Online.ess a in
        if Float.is_finite e then ess := !ess +. e
      end)
    tracks;
  let mean_service = if !samples = 0 then nan else !sum /. float_of_int !samples in
  let acf1 =
    finite_mean
      (List.filter_map
         (fun c ->
           let a = c.acfs.(q) in
           if Statistics.Online.count a > 1 then
             Some (Statistics.Online.autocorrelation a 1)
           else None)
         tracks)
  in
  let mean_waiting =
    let ws =
      List.filter_map
        (fun c ->
          if Array.length c.waiting > q then
            let w = c.waiting.(q) in
            if Statistics.Welford.count w > 0 then
              Some (Statistics.Welford.mean w
                   *. float_of_int (Statistics.Welford.count w))
            else None
          else None)
        tracks
    in
    let n =
      List.fold_left
        (fun acc c ->
          if Array.length c.waiting > q then
            acc + Statistics.Welford.count c.waiting.(q)
          else acc)
        0 tracks
    in
    if n = 0 then nan else List.fold_left ( +. ) 0.0 ws /. float_of_int n
  in
  let wait_fraction =
    let denom = mean_waiting +. mean_service in
    if Float.is_finite denom && denom > 0.0 then mean_waiting /. denom else nan
  in
  {
    queue = q;
    samples = !samples;
    mean_service;
    service_q05 = q05;
    service_q50 = q50;
    service_q95 = q95;
    mean_waiting;
    wait_fraction;
    rhat;
    ess = !ess;
    ess_per_sec = (if wall > 0.0 then !ess /. wall else nan);
    acf1;
  }

let kernels_locked (t : t) =
  let counter ?labels name =
    Metrics.Counter.value (Metrics.Counter.create ~registry:t.registry ?labels name)
  in
  {
    piecewise_bounded =
      counter ~labels:[ ("kind", "bounded") ] "qnet_gibbs_kernel_total";
    piecewise_tail = counter ~labels:[ ("kind", "tail") ] "qnet_gibbs_kernel_total";
    piecewise_point =
      counter ~labels:[ ("kind", "point") ] "qnet_gibbs_kernel_total";
    slice_steps = counter "qnet_slice_steps_total";
    slice_shrinks = counter "qnet_slice_shrinks_total";
  }

let snapshot_locked (t : t) =
  let ts = Clock.now () in
  let wall =
    if Float.is_nan t.t0 then 0.0 else Float.max 0.0 (t.last_ts -. t.t0)
  in
  let nq = Stdlib.max 0 t.num_queues in
  let queues = Array.init nq (fun q -> queue_summary_locked t ~wall q) in
  let service_queues =
    Array.to_list queues |> List.filter (fun s -> s.queue <> t.arrival)
  in
  let max_rhat =
    List.fold_left
      (fun acc s ->
        if Float.is_finite s.rhat then
          if Float.is_nan acc then s.rhat else Float.max acc s.rhat
        else acc)
      nan service_queues
  in
  let bottleneck =
    List.fold_left
      (fun best s ->
        if not (Float.is_finite s.wait_fraction) then best
        else
          match best with
          | None -> Some s
          | Some b -> if s.wait_fraction > b.wait_fraction then Some s else best)
      None service_queues
    |> Option.fold ~none:(-1) ~some:(fun s -> s.queue)
  in
  let chains =
    List.map
      (fun (c : chain_track) ->
        { chain = c.chain; iterations = c.iterations; status = c.status })
      t.chains
    |> List.sort (fun a b -> compare a.chain b.chain)
    |> Array.of_list
  in
  {
    ts;
    wall_seconds = wall;
    iterations_total = t.observations;
    skipped_samples = t.skipped;
    ensemble_status = t.ensemble_status;
    chains;
    queues;
    arrival_queue = t.arrival;
    max_rhat;
    converged = Float.is_finite max_rhat && max_rhat < t.rhat_good;
    bottleneck;
    gc =
      {
        minor_words = t.gc.minor_words;
        promoted_words = t.gc.promoted_words;
        major_words = t.gc.major_words;
        minor_collections = t.gc.minor_collections;
        major_collections = t.gc.major_collections;
        compactions = t.gc.compactions;
        heap_words = t.gc.heap_words;
      };
    kernels = kernels_locked t;
  }

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let to_json (s : snapshot) =
  let open Jsonx in
  let num x = Num x in
  let queue (q : queue_summary) =
    Obj
      [
        ("queue", Num (float_of_int q.queue));
        ("samples", Num (float_of_int q.samples));
        ("mean_service", num q.mean_service);
        ("service_q05", num q.service_q05);
        ("service_q50", num q.service_q50);
        ("service_q95", num q.service_q95);
        ("mean_waiting", num q.mean_waiting);
        ("wait_fraction", num q.wait_fraction);
        ("rhat", num q.rhat);
        ("ess", num q.ess);
        ("ess_per_sec", num q.ess_per_sec);
        ("acf1", num q.acf1);
      ]
  in
  let chain (c : chain_summary) =
    Obj
      [
        ("chain", Num (float_of_int c.chain));
        ("iterations", Num (float_of_int c.iterations));
        ("status", Str c.status);
      ]
  in
  render
    (Obj
       [
         ("ts", num s.ts);
         ("wall_seconds", num s.wall_seconds);
         ("iterations_total", Num (float_of_int s.iterations_total));
         ("skipped_samples", Num (float_of_int s.skipped_samples));
         ("ensemble_status", Str s.ensemble_status);
         ("chains", Arr (Array.to_list (Array.map chain s.chains)));
         ("queues", Arr (Array.to_list (Array.map queue s.queues)));
         ("arrival_queue", Num (float_of_int s.arrival_queue));
         ("max_rhat", num s.max_rhat);
         ("converged", Bool s.converged);
         ("bottleneck", Num (float_of_int s.bottleneck));
         ( "gc",
           Obj
             [
               ("minor_words", num s.gc.minor_words);
               ("promoted_words", num s.gc.promoted_words);
               ("major_words", num s.gc.major_words);
               ("minor_collections", Num (float_of_int s.gc.minor_collections));
               ("major_collections", Num (float_of_int s.gc.major_collections));
               ("compactions", Num (float_of_int s.gc.compactions));
               ("heap_words", Num (float_of_int s.gc.heap_words));
             ] );
         ( "kernels",
           Obj
             [
               ("piecewise_bounded", num s.kernels.piecewise_bounded);
               ("piecewise_tail", num s.kernels.piecewise_tail);
               ("piecewise_point", num s.kernels.piecewise_point);
               ("slice_steps", num s.kernels.slice_steps);
               ("slice_shrinks", num s.kernels.slice_shrinks);
             ] );
       ])

(* ------------------------------------------------------------------ *)
(* Gauge publication                                                   *)
(* ------------------------------------------------------------------ *)

let gauge (t : t) ?labels ~help name =
  Metrics.Gauge.create ~registry:t.registry ~help ?labels name

let set_finite g x = if Float.is_finite x then Metrics.Gauge.set g x

let publish_locked (t : t) =
  let s = snapshot_locked t in
  Array.iter
    (fun (q : queue_summary) ->
      let labels = [ ("queue", string_of_int q.queue) ] in
      set_finite
        (gauge t ~labels ~help:"Split-R-hat of mean service, recent window"
           "qnet_diag_rhat")
        q.rhat;
      set_finite
        (gauge t ~labels ~help:"Pooled effective sample size of mean service"
           "qnet_diag_ess")
        q.ess;
      set_finite
        (gauge t ~labels ~help:"Pooled ESS per wall-clock second"
           "qnet_diag_ess_per_second")
        q.ess_per_sec;
      set_finite
        (gauge t ~labels ~help:"Mean lag-1 autocorrelation across chains"
           "qnet_diag_acf1")
        q.acf1;
      set_finite
        (gauge t ~labels ~help:"Posterior mean service time"
           "qnet_diag_mean_service")
        q.mean_service;
      set_finite
        (gauge t ~labels ~help:"Posterior median service time"
           "qnet_diag_service_q50")
        q.service_q50;
      set_finite
        (gauge t ~labels ~help:"Posterior mean waiting time"
           "qnet_diag_mean_waiting")
        q.mean_waiting;
      set_finite
        (gauge t ~labels ~help:"waiting / (waiting + service)"
           "qnet_diag_wait_fraction")
        q.wait_fraction)
    s.queues;
  set_finite
    (gauge t ~help:"Max split-R-hat over service queues" "qnet_diag_max_rhat")
    s.max_rhat;
  Metrics.Gauge.set
    (gauge t ~help:"1 when max R-hat is finite and below threshold"
       "qnet_diag_converged")
    (if s.converged then 1.0 else 0.0);
  Metrics.Gauge.set
    (gauge t ~help:"Chains feeding diagnostics" "qnet_diag_chains")
    (float_of_int (Array.length s.chains));
  Metrics.Gauge.set
    (gauge t ~help:"Chains whose latest verdict is healthy"
       "qnet_diag_healthy_chains")
    (float_of_int
       (Array.fold_left
          (fun acc (c : chain_summary) ->
            if String.equal c.status "healthy" then acc + 1 else acc)
          0 s.chains));
  (match t.sink with
  | None -> ()
  | Some emit -> ( try emit (to_json s) with _ -> () (* qnet-lint: allow E001 sink failures must not kill the sampler *)));
  s

let publish t = Mutex.protect t.lock (fun () -> ignore (publish_locked t))
let snapshot t = Mutex.protect t.lock (fun () -> snapshot_locked t)
let snapshot_json t = Mutex.protect t.lock (fun () -> to_json (snapshot_locked t))

(* ------------------------------------------------------------------ *)
(* Feeding                                                             *)
(* ------------------------------------------------------------------ *)

let ensure_dims_locked (t : t) (c : chain_track) n =
  if t.num_queues = -1 then t.num_queues <- n
  else if t.num_queues <> n then
    invalid_arg
      (Printf.sprintf
         "Diagnostics.observe_iteration: %d queues, hub tracks %d" n
         t.num_queues);
  if Array.length c.service <> n then begin
    c.service <- Array.init n (fun _ -> ring_make t.window);
    c.acfs <- Array.init n (fun _ -> Statistics.Online.acf ());
    c.waiting <- Array.init n (fun _ -> Statistics.Welford.create ())
  end

let observe_iteration (t : t) ~chain ?waiting mean_service =
  Mutex.protect t.lock (fun () ->
      let c = track_locked t ~chain in
      ensure_dims_locked t c (Array.length mean_service);
      let now = Clock.now () in
      if Float.is_nan t.t0 then t.t0 <- now;
      t.last_ts <- now;
      c.iterations <- c.iterations + 1;
      t.observations <- t.observations + 1;
      Array.iteri
        (fun q x ->
          if Float.is_finite x then begin
            ring_push c.service.(q) x;
            Statistics.Online.push c.acfs.(q) x
          end
          else t.skipped <- t.skipped + 1)
        mean_service;
      (match waiting with
      | None -> ()
      | Some w ->
          Array.iteri
            (fun q x ->
              if q < Array.length c.waiting then
                Statistics.Welford.add c.waiting.(q) x)
            w);
      if t.observations mod t.publish_every = 0 then ignore (publish_locked t))

let gc_tick (t : t) =
  Mutex.protect t.lock (fun () ->
      (* On OCaml 5.1 quick_stat's minor words advance only at a minor
         collection; Gc.minor_words is exact for the calling domain. *)
      let st = { (Gc.quick_stat ()) with Gc.minor_words = Gc.minor_words () } in
      let g = t.gc in
      (match t.gc_base with
      | None -> ()
      | Some base ->
          (* Deltas clamp at zero: the minor counters are domain-local,
             and ticks may come from different domains over a
             supervised run. *)
          let dpos x y = Float.max 0.0 (x -. y) in
          let ipos x y = Stdlib.max 0 (x - y) in
          g.minor_words <- g.minor_words +. dpos st.minor_words base.minor_words;
          g.promoted_words <-
            g.promoted_words +. dpos st.promoted_words base.promoted_words;
          g.major_words <- g.major_words +. dpos st.major_words base.major_words;
          g.minor_collections <-
            g.minor_collections + ipos st.minor_collections base.minor_collections;
          g.major_collections <-
            g.major_collections + ipos st.major_collections base.major_collections;
          g.compactions <- g.compactions + ipos st.compactions base.compactions);
      g.heap_words <- st.heap_words;
      t.gc_base <- Some st;
      Metrics.Gauge.set
        (gauge t ~help:"Major heap size in words, last observed"
           "qnet_gc_heap_words")
        (float_of_int g.heap_words);
      Metrics.Gauge.set
        (gauge t ~help:"Minor words allocated since diagnostics start"
           "qnet_gc_minor_words")
        g.minor_words;
      Metrics.Gauge.set
        (gauge t ~help:"Words promoted to the major heap since start"
           "qnet_gc_promoted_words")
        g.promoted_words;
      Metrics.Gauge.set
        (gauge t ~help:"Major words allocated since start" "qnet_gc_major_words")
        g.major_words;
      Metrics.Gauge.set
        (gauge t ~help:"Minor collections since start"
           "qnet_gc_minor_collections")
        (float_of_int g.minor_collections);
      Metrics.Gauge.set
        (gauge t ~help:"Major collections since start"
           "qnet_gc_major_collections")
        (float_of_int g.major_collections);
      Metrics.Gauge.set
        (gauge t ~help:"Heap compactions since start" "qnet_gc_compactions")
        (float_of_int g.compactions))

(* ------------------------------------------------------------------ *)
(* Force registration                                                  *)
(* ------------------------------------------------------------------ *)

let register_metrics ?(registry = Metrics.default) () =
  let g name help = ignore (Metrics.Gauge.create ~registry ~help name) in
  let c name help = ignore (Metrics.Counter.create ~registry ~help name) in
  g "qnet_diag_max_rhat" "Max split-R-hat over service queues";
  g "qnet_diag_converged" "1 when max R-hat is finite and below threshold";
  g "qnet_diag_chains" "Chains feeding diagnostics";
  g "qnet_diag_healthy_chains" "Chains whose latest verdict is healthy";
  g "qnet_gc_heap_words" "Major heap size in words, last observed";
  g "qnet_gc_minor_words" "Minor words allocated since diagnostics start";
  g "qnet_gc_promoted_words" "Words promoted to the major heap since start";
  g "qnet_gc_major_words" "Major words allocated since start";
  g "qnet_gc_minor_collections" "Minor collections since start";
  g "qnet_gc_major_collections" "Major collections since start";
  g "qnet_gc_compactions" "Heap compactions since start";
  c "qnet_slice_steps_total" "Slice-sampler transitions attempted";
  c "qnet_slice_shrinks_total" "Shrink rejections inside slice transitions"
