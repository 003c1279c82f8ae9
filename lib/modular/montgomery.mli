(** Fixed-width Montgomery arithmetic for large odd moduli.

    Modular exponentiation dominates DMW's computational cost
    (Theorem 12's [log p] factor). Plain [Zmod.pow] performs one full
    bignum product and Knuth division per multiplication. Montgomery's
    method replaces the division with word operations after a one-time
    transformation into the residue [aR mod m], here with
    [R = 2^{30s}] for a modulus of [s] limbs.

    The kernel is CIOS (Coarsely Integrated Operand Scanning): one
    word-by-word pass that interleaves the product with its reduction,
    over preallocated [s]-limb buffers in [Nat]'s base [2^30]. Bignums
    cross into the limb domain once at the start of {!pow} and back
    once at its end; everything between is native-int work on scratch
    buffers allocated per call, so one {!ctx} is safe to share between
    threads. {!pow} adds a fixed 4-bit window. The test suite checks
    bit-for-bit agreement with [Zmod.pow] on random inputs and edge
    cases.

    Nothing delegates here implicitly. A [Group.t] whose [p] has at
    least {!threshold_bits} bits owns a context built once by
    [Group.create], and [Primality.is_prime] builds one per candidate
    of that size; smaller moduli stay on [Zmod]. *)

open Dmw_bigint

type ctx
(** Everything that depends only on the modulus: its limbs,
    [-m^{-1} mod 2^30], [R^2 mod m] and [R mod m]. Immutable. *)

val create : Bigint.t -> ctx
(** Precompute for an odd modulus [>= 3].
    @raise Invalid_argument for even or tiny moduli. *)

val threshold_bits : int
(** Modulus size (384 bits) from which {!for_modulus} builds a
    context. *)

val for_modulus : Bigint.t -> ctx option
(** [Some (create m)] when [m] is odd and has at least
    {!threshold_bits} bits, else [None]. *)

val pow : ctx -> Bigint.t -> Bigint.t -> Bigint.t
(** [pow ctx b e = b^e mod m] for [e >= 0], via Montgomery
    multiplication with 4-bit windowing. Counts each Montgomery
    multiplication in {!Zmod.modmuls}.
    @raise Invalid_argument on a negative exponent. *)

val mul : ctx -> Bigint.t -> Bigint.t -> Bigint.t
(** Plain-domain product through Montgomery form (for testing; the
    win comes from keeping chains of multiplications in Montgomery
    form, which {!pow} does internally). *)
