(** Decimal text to floats, read in place. *)

val float_of_substring : string -> int -> int -> float
(** [float_of_substring text i j] is
    [float_of_string (String.sub text i (j - i))] to the bit, and
    raises [Failure] on exactly the fields that call rejects. A field of
    the form [-?digits[.digits][(e|E)[+-]digits]] with at most 19
    significant digits is converted without the substring, by Clinger's
    exact path or the Eisel–Lemire algorithm; any other goes to
    [float_of_string]. Raises [Invalid_argument] unless
    [0 <= i <= j <= String.length text]. *)

val power_of_five : int -> int64 * int64
(** [power_of_five q] is the conversion's 128-bit truncation of [5^q],
    as its high and low words, for [q] in [\[-342, 308\]]; for the test
    that recomputes the table. *)
