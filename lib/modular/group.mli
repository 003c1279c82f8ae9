(** Schnorr groups for the DMW commitments.

    The protocol (paper §3, Notation) requires large primes [p, q] with
    [q | p - 1] and two distinct generators [z1, z2] of the order-[q]
    subgroup of [Z_p^*]. We use safe primes ([p = 2q + 1]), so the
    order-[q] subgroup is exactly the quadratic residues. Exponents
    (polynomial coefficients, shares) live in [Z_q]; group elements
    (commitments) live in [Z_p]. *)

open Dmw_bigint

type t = private {
  p : Bigint.t;  (** Modulus, a safe prime. *)
  q : Bigint.t;  (** Subgroup order, [(p-1)/2], prime. *)
  z1 : Bigint.t; (** First generator of the order-[q] subgroup. *)
  z2 : Bigint.t; (** Second generator, independent of [z1]. *)
  mont : Montgomery.ctx option;
      (** Arithmetic context for [p], built once by {!create} when [p]
          has at least [Montgomery.threshold_bits] bits; {!pow} runs
          on it. *)
}

type elt = Bigint.t
(** Subgroup elements, canonical in [[1, p-1]]. Compare with {!equal},
    never polymorphic [=]: the alias to [Bigint.t] is an interface
    convenience, and structural bignum comparison both bypasses the
    typed path and breaks if the representation ever carries slack
    (lint rule R2 rejects [=] on elements). *)

val create :
  p:Bigint.t -> q:Bigint.t -> z1:Bigint.t -> z2:Bigint.t ->
  (t, string) result
(** Structural validation: [p = 2q + 1], [z1], [z2] in [[2, p-2]] with
    [z^q = 1], and [z1 <> z2]. Does not re-test primality (see
    {!validate_prime}). *)

val validate_prime : Prng.t -> t -> bool
(** Probabilistic re-verification that [p] and [q] are prime. *)

val generate : Prng.t -> bits:int -> t
(** Fresh group with a [bits]-bit safe prime; deterministic in the
    generator state. *)

val standard : bits:int -> t
(** Pre-generated, test-verified groups for [bits] in
    {16, 32, 64, 96, 128, 256, 512, 1024}. @raise Invalid_argument for
    other sizes. The 16 and 32-bit groups are for fast unit tests
    only. *)

val standard_sizes : int list

val bits : t -> int
(** Bit length of [p]. *)

val one : elt

val mul : t -> elt -> elt -> elt
val inv : t -> elt -> elt
val div : t -> elt -> elt -> elt
val equal : elt -> elt -> bool

val pow : t -> elt -> Bigint.t -> elt
(** [pow g b e] is [b^e mod p]; the exponent is first reduced mod [q]
    (valid for subgroup elements by Lagrange's theorem) so that
    negative or oversized exponents are handled uniformly. *)

val commit : t -> Bigint.t -> Bigint.t -> elt
(** [commit g a b] is the Pedersen-style value [z1^a * z2^b mod p]. *)

val mod_q : t -> Bigint.t -> Bigint.t
val random_exponent : t -> Prng.t -> Bigint.t
(** Uniform in [[1, q-1]] (the paper draws coefficients from a
    multiplicative group, i.e. nonzero). *)

val element_bytes : t -> int
(** Wire size of one group element, for the message-size model. *)

val exponent_bytes : t -> int

val pp : Format.formatter -> t -> unit
