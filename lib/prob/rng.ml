(* The four xoshiro words live in 32 bytes read and written through the
   unchecked 64-bit primitives, so a draw keeps them in registers
   instead of boxing an [int64] per mutable record field. *)
type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* One xoshiro256++ step. Straight-line and inlined at every call site,
   so the words and the result stay unboxed. *)
let[@inline] next t =
  let s0 = get64u t 0 and s1 = get64u t 8 and s2 = get64u t 16 and s3 = get64u t 24 in
  let result = Int64.add (rotl (Int64.add s0 s3) 23) s0 in
  let tmp = Int64.shift_left s1 17 in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  let s1 = Int64.logxor s1 s2 in
  let s0 = Int64.logxor s0 s3 in
  set64u t 0 s0;
  set64u t 8 s1;
  set64u t 16 (Int64.logxor s2 tmp);
  set64u t 24 (rotl s3 45);
  result

let of_words s0 s1 s2 s3 =
  let t = Bytes.create 32 in
  set64u t 0 s0;
  set64u t 8 s1;
  set64u t 16 s2;
  set64u t 24 s3;
  t

(* splitmix64: used only to expand a seed into the xoshiro state, per
   the xoshiro authors' recommendation. *)
let splitmix64_next state =
  state := Int64.add !state 0x9E3779B97F4A7C15L;
  let z = !state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed64 seed =
  let st = ref seed in
  let s0 = splitmix64_next st in
  let s1 = splitmix64_next st in
  let s2 = splitmix64_next st in
  let s3 = splitmix64_next st in
  of_words s0 s1 s2 s3

let default_seed = 0x51CEB00B1E5

let create ?(seed = default_seed) () = of_seed64 (Int64.of_int seed)

let copy = Bytes.copy

let state t = [| get64u t 0; get64u t 8; get64u t 16; get64u t 24 |]

let set_state t s =
  if Array.length s <> 4 then invalid_arg "Rng.set_state: need 4 words";
  if Array.for_all (fun w -> Int64.equal w 0L) s then
    invalid_arg "Rng.set_state: all-zero state is invalid for xoshiro256++";
  Array.iteri (fun i w -> set64u t (8 * i) w) s

let bits64 t = next t

let split t = of_seed64 (next t)

(* The 53 high bits of the output word, as an immediate int. *)
let bits53 t = Int64.to_int (Int64.shift_right_logical (next t) 11)

let float_unit t = float_of_int (bits53 t) *. 0x1p-53

let float_pos t = 1.0 -. float_unit t

let float_range t lo hi =
  if hi <= lo then lo else lo +. ((hi -. lo) *. float_unit t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection from the top 62 bits to avoid modulo bias. *)
  let mask = 0x3FFF_FFFF_FFFF_FFFF in
  let r = ref (-1) in
  while !r < 0 do
    let v = Int64.to_int (Int64.shift_right_logical (next t) 2) land mask in
    let x = v mod n in
    if v - x + (n - 1) >= 0 then r := x
  done;
  !r

let bool t = Int64.compare (Int64.logand (next t) 1L) 0L <> 0

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement t k n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Sequential selection: include index i with probability
     (still needed) / (still remaining). Output is naturally sorted. *)
  let rec loop i needed acc =
    if needed = 0 then List.rev acc
    else
      let remaining = n - i in
      if float_unit t *. float_of_int remaining < float_of_int needed then
        loop (i + 1) (needed - 1) (i :: acc)
      else loop (i + 1) needed acc
  in
  loop 0 k []

let categorical t w =
  let total = Array.fold_left (fun acc x ->
      if x < 0.0 || Float.is_nan x then invalid_arg "Rng.categorical: negative weight"
      else acc +. x)
      0.0 w
  in
  if total <= 0.0 then invalid_arg "Rng.categorical: no positive weight";
  let u = float_unit t *. total in
  let n = Array.length w in
  let rec scan i acc =
    if i >= n - 1 then n - 1
    else
      let acc = acc +. w.(i) in
      if u < acc then i else scan (i + 1) acc
  in
  (* Guard against all mass sitting in trailing zero weights. *)
  let i = scan 0 0.0 in
  if w.(i) > 0.0 then i
  else
    let rec back j = if w.(j) > 0.0 then j else back (j - 1) in
    back i
