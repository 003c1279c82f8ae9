(** Arbitrary-precision natural numbers.

    Numbers are stored little-endian in base [2^30] with no trailing
    (most-significant) zero limbs; zero is the empty array. All
    functions return normalized values and never mutate their
    arguments. This module is the unsigned kernel used by {!Bigint};
    prefer {!Bigint} in application code. *)

type t

val base_bits : int
(** Number of bits per limb (30). *)

val zero : t
val one : t
val two : t

val is_zero : t -> bool
val equal : t -> t -> bool

val compare : t -> t -> int
(** Total order; [compare a b] is negative, zero or positive as [a] is
    less than, equal to or greater than [b]. *)

val of_int : int -> t
(** [of_int n] converts a non-negative native integer.
    @raise Invalid_argument if [n < 0]. *)

val to_int : t -> int option
(** [to_int n] is [Some i] when [n] fits in a native [int]. *)

val to_int_exn : t -> int
(** @raise Failure when the value does not fit in a native [int]. *)

val add : t -> t -> t

val sub : t -> t -> t
(** Truncated subtraction. @raise Invalid_argument if the result would
    be negative. *)

val mul : t -> t -> t
(** Product; schoolbook below a limb threshold, Karatsuba above. *)

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r] and [0 <= r < b]
    (Knuth Algorithm D). @raise Division_by_zero if [b] is zero. *)

val mul_int : t -> int -> t
(** [mul_int a k] for [0 <= k < 2^30]. *)

val add_int : t -> int -> t
(** [add_int a k] for [0 <= k < 2^30]. *)

val divmod_int : t -> int -> t * int
(** Single-limb division: [divmod_int a k] for [0 < k < 2^30]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val num_bits : t -> int
(** Position of the highest set bit plus one; [num_bits zero = 0]. *)

val testbit : t -> int -> bool
(** [testbit n i] is bit [i] of [n] (bit 0 least significant). *)

val is_even : t -> bool

val of_string : string -> t
(** Parses a decimal literal, or hexadecimal with a ["0x"] prefix.
    Underscores are permitted as digit separators.
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string
(** Decimal representation. *)

val to_hex : t -> string
(** Lowercase hexadecimal representation, no prefix. *)

val pp : Format.formatter -> t -> unit

val to_bytes_be : t -> string
(** Minimal big-endian byte string; [to_bytes_be zero = "\x00"]. *)

val of_bytes_be : string -> t
(** Inverse of {!to_bytes_be}; leading zero bytes are accepted. *)

val limbs : t -> int array
(** Defensive copy of the little-endian limb array (for hashing and
    size accounting). *)

val of_limbs : int array -> t
(** Inverse of {!limbs}: a copy of the little-endian limbs, trailing
    zero limbs dropped. @raise Invalid_argument if a limb lies outside
    [[0, 2^30)]. *)

val byte_size : t -> int
(** Number of bytes needed for a minimal big-endian encoding; used by
    the simulator's message-size model. [byte_size zero = 1]. *)
