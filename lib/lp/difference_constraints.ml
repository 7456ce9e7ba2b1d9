(* Constraints live in three parallel arrays, in insertion order:
   [x_i - x_j <= c] is (i, j, c), and a unary bound on x_i stores a
   negative sentinel in place of j. *)
let upper_bound = -1 (* x_i <= c *)
let lower_bound = -2 (* x_i >= c *)

type t = {
  n : int;
  default_upper : float;
  mutable len : int;
  mutable ci : int array;
  mutable cj : int array;
  mutable cc : float array;
}

let create ?(default_upper = 1e15) ?(capacity = 0) n =
  if n < 0 then invalid_arg "Difference_constraints.create: negative size";
  let c = Stdlib.max n capacity in
  { n; default_upper; len = 0; ci = Array.make c 0; cj = Array.make c 0; cc = Array.make c 0.0 }

let num_variables t = t.n

let check_var t i name =
  if i < 0 || i >= t.n then invalid_arg ("Difference_constraints." ^ name ^ ": bad variable")

let push t i j c =
  if t.len = Array.length t.ci then begin
    let capacity = Stdlib.max 8 (2 * t.len) in
    let grow a zero =
      let b = Array.make capacity zero in
      Array.blit a 0 b 0 t.len;
      b
    in
    t.ci <- grow t.ci 0;
    t.cj <- grow t.cj 0;
    t.cc <- grow t.cc 0.0
  end;
  t.ci.(t.len) <- i;
  t.cj.(t.len) <- j;
  t.cc.(t.len) <- c;
  t.len <- t.len + 1

let add_le t i j c =
  check_var t i "add_le";
  check_var t j "add_le";
  push t i j c

let add_upper t i c =
  check_var t i "add_upper";
  push t i upper_bound c

let add_lower t i c =
  check_var t i "add_lower";
  push t i lower_bound c

let add_eq t i c =
  add_upper t i c;
  add_lower t i c

type infeasibility = { message : string }

(* The constraint graph over nodes 0..n (node n is the zero reference)
   as compressed rows: row u holds the edges [first.(u)] to
   [first.(u + 1) - 1], and edge e (u -> target.(e), weight.(e))
   encodes x_target <= x_u + weight. [`Latest] reads the constraints
   as written:
     x_i - x_j <= c  ==>  edge j -> i with weight c;
     x_i <= c        ==>  edge ref -> i with weight c;
     x_i >= c        ==>  edge i -> ref with weight -c.
   [`Earliest] substitutes y = -x, which mirrors every constraint:
     x_i - x_j <= c  ==>  y_j - y_i <= c  ==>  edge i -> j weight c;
     x_i <= c  ==>  y_i >= -c;  x_i >= c  ==>  y_i <= -c.
   Both cap every variable by [default_upper] from the reference.

   The solver's result depends on the order in which it visits edges
   (see [shortest_paths]), so the rows fix it: row u lists the
   constraints' edges out of u in insertion order, and the reference
   row then lists the caps from variable n - 1 down to 0. *)
type graph = { first : int array; target : int array; weight : float array }

let graph t ~latest =
  let n = t.n in
  (* constraint k's edge: a unary bound leaves the reference when it is
     an upper bound read latest or a lower bound read earliest *)
  let from_ref k = (t.cj.(k) = upper_bound) = latest in
  let source k =
    let i = t.ci.(k) and j = t.cj.(k) in
    if j >= 0 then (if latest then j else i) else if from_ref k then n else i
  in
  let target_of k =
    let i = t.ci.(k) and j = t.cj.(k) in
    if j >= 0 then (if latest then i else j) else if from_ref k then i else n
  in
  let first = Array.make (n + 2) 0 in
  for k = 0 to t.len - 1 do
    let u = source k in
    first.(u + 1) <- first.(u + 1) + 1
  done;
  first.(n + 1) <- first.(n + 1) + n;
  for u = 1 to n + 1 do
    first.(u) <- first.(u) + first.(u - 1)
  done;
  let edges = first.(n + 1) in
  let target = Array.make edges 0 and weight = Array.make edges 0.0 in
  let next = Array.sub first 0 (n + 1) in
  for k = 0 to t.len - 1 do
    let u = source k in
    let e = next.(u) in
    target.(e) <- target_of k;
    weight.(e) <- (if t.cj.(k) = lower_bound then -.t.cc.(k) else t.cc.(k));
    next.(u) <- e + 1
  done;
  for i = n - 1 downto 0 do
    let e = next.(n) in
    target.(e) <- i;
    weight.(e) <- t.default_upper;
    next.(n) <- e + 1
  done;
  { first; target; weight }

(* Shortest paths from the reference by SPFA — Bellman–Ford driven by
   a first-in first-out worklist, near-linear on the DAG-like
   constraint graphs produced by traces. An edge relaxes only on an
   improvement of more than 1e-12, so of two paths closer than that,
   the one visited first wins: the result depends on the rows' order.
   The worklist is a ring of n + 1 slots, enough because a node is
   queued at most once at a time. Distances from the reference are the
   componentwise-greatest feasible solution with x_ref = 0. A node
   relaxed more than [n + 1] times witnesses a negative cycle. *)
let shortest_paths n { first; target; weight } =
  let nodes = n + 1 in
  let dist = Array.make nodes infinity in
  let queued = Bytes.make nodes '\000' in
  let relax_count = Array.make nodes 0 in
  let ring = Array.make nodes 0 in
  let head = ref 0 and size = ref 1 in
  dist.(n) <- 0.0;
  ring.(0) <- n;
  Bytes.set queued n '\001';
  let negative_cycle = ref false in
  while (not !negative_cycle) && !size > 0 do
    let u = ring.(!head) in
    head := if !head = n then 0 else !head + 1;
    decr size;
    Bytes.set queued u '\000';
    let du = dist.(u) in
    for e = first.(u) to first.(u + 1) - 1 do
      let v = target.(e) and w = weight.(e) in
      if du +. w < dist.(v) -. 1e-12 then begin
        dist.(v) <- du +. w;
        relax_count.(v) <- relax_count.(v) + 1;
        if relax_count.(v) > n + 1 then negative_cycle := true
        else if Bytes.get queued v = '\000' then begin
          let tail = !head + !size in
          ring.(if tail > n then tail - nodes else tail) <- v;
          incr size;
          Bytes.set queued v '\001'
        end
      end
    done
  done;
  if !negative_cycle then
    Error { message = "negative cycle: constraints are contradictory" }
  else Ok dist

let solve t mode =
  let latest = match mode with `Latest -> true | `Earliest -> false in
  match shortest_paths t.n (graph t ~latest) with
  | Error e -> Error e
  | Ok dist ->
      let x = Array.make t.n 0.0 in
      let d_ref = dist.(t.n) in
      for i = 0 to t.n - 1 do
        x.(i) <- (if latest then dist.(i) -. d_ref else d_ref -. dist.(i))
      done;
      Ok x

let solve_centered t =
  match solve t `Earliest with
  | Error e -> Error e
  | Ok earliest -> (
      match solve t `Latest with
      | Error e -> Error e
      | Ok latest ->
          for i = 0 to t.n - 1 do
            earliest.(i) <- 0.5 *. (earliest.(i) +. latest.(i))
          done;
          Ok earliest)

(* The last constraint added that [x] violates, as in a scan of the
   constraints newest first. *)
let check t x =
  if Array.length x <> t.n then Error "check: wrong dimension"
  else begin
    let slack = 1e-9 in
    let violated k =
      let i = t.ci.(k) and j = t.cj.(k) and c = t.cc.(k) in
      if j >= 0 then x.(i) -. x.(j) > c +. slack
      else if j = upper_bound then x.(i) > c +. slack
      else x.(i) < c -. slack
    in
    let k = ref (t.len - 1) in
    while !k >= 0 && not (violated !k) do
      decr k
    done;
    if !k < 0 then Ok ()
    else begin
      let i = t.ci.(!k) and j = t.cj.(!k) and c = t.cc.(!k) in
      if j >= 0 then
        Error
          (Printf.sprintf "violated: x%d - x%d <= %g (got %g)" i j c (x.(i) -. x.(j)))
      else if j = upper_bound then
        Error (Printf.sprintf "violated: x%d <= %g (got %g)" i c x.(i))
      else Error (Printf.sprintf "violated: x%d >= %g (got %g)" i c x.(i))
    end
  end
