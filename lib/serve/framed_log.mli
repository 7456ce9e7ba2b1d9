(** CRC32-framed durable log records for the serving layer.

    Each persisted record is one line of text:

    {v CCCCCCCC LEN PAYLOAD v}

    with [CCCCCCCC] the zlib-polynomial CRC32 of [PAYLOAD] in eight
    lowercase hex digits and [LEN] the payload byte length. Framing
    makes replay after a crash or a dirty disk exact: corrupt frames
    are quarantined with a reason, a torn tail is truncated back to the
    last valid frame, and legacy unframed lines still pass through. *)

val crc32 : string -> int
(** Table-driven CRC32 (zlib polynomial, [0xEDB88320]), as an int in
    [0 .. 0xFFFFFFFF]; allocates nothing. The standard check value
    holds: [crc32 "123456789" = 0xCBF43926]. *)

val frame : string -> string
(** [frame payload] wraps [payload] in a one-line frame (no trailing
    newline). *)

type error =
  | Not_a_frame  (** Not frame-shaped at all: a legacy unframed line. *)
  | Corrupt of string
      (** Frame-shaped but fails its length or CRC check; the string
          says which and how. *)

val parse : string -> (string, error) result
(** Validate one line and return its payload. *)

type stats = {
  frames : int;  (** valid frames delivered *)
  legacy : int;  (** unframed lines passed through as raw payloads *)
  corrupt : int;  (** frame-shaped lines quarantined *)
  torn : bool;  (** an unterminated invalid tail was found (and, by
                    default, truncated away) *)
}

val replay_file :
  path:string ->
  on_payload:(string -> unit) ->
  on_corrupt:(line:string -> reason:string -> unit) ->
  unit ->
  (stats, string) result
(** Replay every line of [path] in order. Valid frames and legacy
    lines go to [on_payload] (frames unwrapped, legacy verbatim);
    corrupt frames go to [on_corrupt] and are counted. An unterminated
    final line that fails validation is a torn tail: the file is
    truncated back to the last record boundary so the next append
    starts clean. An
    unterminated final line that still validates is delivered and its
    missing newline repaired. Returns [Error] only on I/O failure. *)
