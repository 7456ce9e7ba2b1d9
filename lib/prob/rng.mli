(** Deterministic pseudo-random number generation.

    The generator is xoshiro256++ seeded through splitmix64, giving a
    256-bit state with period [2^256 - 1]. Generators are explicit
    values: every sampling function in the library threads a [t]
    through, so simulations and samplers are reproducible from a seed
    and independent streams can be created with {!split}. *)

type t
(** Mutable generator state. *)

val create : ?seed:int -> unit -> t
(** [create ~seed ()] builds a fresh generator. The default seed is a
    fixed constant, so two generators created without a seed produce
    identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator starting from the current
    state of [t]; advancing one does not affect the other. *)

val state : t -> int64 array
(** [state t] is the current 4-word xoshiro256++ state, for
    checkpointing. Restoring it with {!set_state} reproduces the
    stream bit for bit. *)

val set_state : t -> int64 array -> unit
(** [set_state t s] overwrites the generator state with the 4 words of
    [s]. Raises [Invalid_argument] unless [s] has length 4 and is not
    all zero (the one state xoshiro can never leave). *)

val split : t -> t
(** [split t] returns a new generator seeded from the output of [t]
    (advancing [t]). Streams obtained by repeated splitting are
    statistically independent for simulation purposes. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output word. *)

val bits53 : t -> int
(** [bits53 t] is the 53 high bits of the next output word, in
    [[0, 2^53)]: [float_of_int (bits53 t) *. 0x1p-53] is bit for bit
    the value {!float_unit} would have returned. It returns an
    immediate, so a caller in another compilation unit can draw without
    boxing a float. *)

val float_unit : t -> float
(** [float_unit t] is uniform on [[0, 1)], with 53 bits of precision. *)

val float_pos : t -> float
(** [float_pos t] is uniform on [(0, 1]]. Safe as the argument of
    [log] when sampling exponentials. *)

val float_range : t -> float -> float -> float
(** [float_range t lo hi] is uniform on [[lo, hi)]. Requires
    [lo <= hi]; returns [lo] when the interval is degenerate. *)

val int : t -> int -> int
(** [int t n] is uniform on [{0, ..., n-1}]. Requires [n > 0].
    Uses rejection to avoid modulo bias. *)

val bool : t -> bool
(** [bool t] is a fair coin flip. *)

val shuffle_in_place : t -> 'a array -> unit
(** [shuffle_in_place t a] applies a uniform Fisher–Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t k n] draws [k] distinct indices from
    [{0, ..., n-1}], returned sorted increasingly. Requires
    [0 <= k <= n]. Uses Vitter's sequential sampling, O(n). *)

val categorical : t -> float array -> int
(** [categorical t w] samples index [i] with probability proportional
    to the non-negative weight [w.(i)]. Requires at least one strictly
    positive weight. *)
