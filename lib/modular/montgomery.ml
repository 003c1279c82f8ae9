open Dmw_bigint

(* Residues are little-endian [int array]s of exactly [s] limbs in
   [Nat]'s base 2^30, [s] being the limb count of the modulus, and
   R = 2^(30 s). Base 2^30 leaves room in a 63-bit native int for two
   limb products plus a limb and a carry, so the multiply and the
   reduction share one inner loop. *)
(* race: confined readonly: the limb arrays are filled by create and
   never written afterwards; pow works on per-call scratch. *)
type ctx = {
  n : Bigint.t;  (* the modulus *)
  s : int;  (* limbs per residue *)
  nl : int array;  (* the modulus, s limbs *)
  n0' : int;  (* -n^{-1} mod 2^30 *)
  r2 : int array;  (* R^2 mod n, for the to-Montgomery conversion *)
  one_m : int array;  (* R mod n = Montgomery form of 1 *)
}

let limb_bits = Nat.base_bits
let mask = (1 lsl limb_bits) - 1

(* [x] in [[0, 2^(30 s))] as exactly [s] limbs. *)
let to_limbs s x =
  let l = Nat.limbs (Bigint.to_nat x) in
  let r = Array.make s 0 in
  Array.blit l 0 r 0 (Array.length l);
  r

let of_limbs r = Bigint.of_nat (Nat.of_limbs r)

(* Newton's iteration for the inverse of an odd limb modulo 2^30: an
   odd n0 is its own inverse mod 8, and each step doubles the number
   of correct low bits (3, 6, 12, 24, 48). Native products wrap mod
   2^63, which keeps the low bits exact. *)
let neg_inv_limb n0 =
  let x = ref n0 in
  for _ = 1 to 4 do
    x := (!x * (2 - (n0 * !x))) land mask
  done;
  (-(!x)) land mask

let create n =
  if Bigint.compare n (Bigint.of_int 3) < 0 then
    invalid_arg "Montgomery.create: modulus too small";
  if Bigint.is_even n then invalid_arg "Montgomery.create: modulus must be odd";
  let s = (Bigint.num_bits n + limb_bits - 1) / limb_bits in
  let r = Bigint.shift_left Bigint.one (s * limb_bits) in
  let nl = to_limbs s n in
  { n; s; nl;
    n0' = neg_inv_limb nl.(0);
    r2 = to_limbs s (Bigint.erem (Bigint.mul r r) n);
    one_m = to_limbs s (Bigint.erem r n) }

let threshold_bits = 384

let for_modulus n =
  if Bigint.num_bits n >= threshold_bits && not (Bigint.is_even n) then
    Some (create n)
  else None

(* CIOS: [r <- a * b * R^{-1} mod n] for canonical [a], [b]. Each outer
   step adds [a * b_i] and the multiple [m * n] that clears the low
   limb, then shifts down one limb; the sum stays below 2n, so one
   conditional subtraction ends it. [t] is [s + 1] limbs of scratch;
   [r] may alias [a] or [b], which are read only before [r] is
   written. Inner sums stay below 2^61 + 2^33, inside a native int. *)
let mont_mul ctx t a b r =
  let s = ctx.s and nl = ctx.nl and n0' = ctx.n0' in
  Array.fill t 0 (s + 1) 0;
  for i = 0 to s - 1 do
    let bi = b.(i) in
    let u = t.(0) + (a.(0) * bi) in
    let m = ((u land mask) * n0') land mask in
    let c = ref ((u + (m * nl.(0))) lsr limb_bits) in
    for j = 1 to s - 1 do
      let v = t.(j) + (a.(j) * bi) + (m * nl.(j)) + !c in
      t.(j - 1) <- v land mask;
      c := v lsr limb_bits
    done;
    let v = t.(s) + !c in
    t.(s - 1) <- v land mask;
    t.(s) <- v lsr limb_bits
  done;
  let rec below j = j >= 0 && (t.(j) < nl.(j) || (t.(j) = nl.(j) && below (j - 1))) in
  if t.(s) = 0 && below (s - 1) then Array.blit t 0 r 0 s
  else begin
    let borrow = ref 0 in
    for j = 0 to s - 1 do
      let d = t.(j) - nl.(j) - !borrow in
      r.(j) <- d land mask;
      borrow := if d < 0 then 1 else 0
    done
  end

(* Counted multiply, as Zmod.mul counts its own. *)
let mul_m ctx t a b r =
  Dmw_obs.Metrics.incr Zmod.modmuls;
  mont_mul ctx t a b r

let scratch ctx = Array.make (ctx.s + 1) 0

let to_m ctx t a =
  let x = to_limbs ctx.s (Bigint.erem a ctx.n) in
  mul_m ctx t x ctx.r2 x;
  x

(* Leaving Montgomery form is a multiply by plain 1; uncounted, like
   the conversion out of the bignum path it replaces. *)
let of_m ctx t x =
  let one = Array.make ctx.s 0 in
  one.(0) <- 1;
  mont_mul ctx t x one x;
  of_limbs x

let mul ctx a b =
  let t = scratch ctx in
  let am = to_m ctx t a and bm = to_m ctx t b in
  mul_m ctx t am bm am;
  of_m ctx t am

let window_bits = 4

(* Bits [c w, c w + w) of the exponent's limbs [el]; a window may
   straddle two limbs since 30 is not a multiple of w. *)
let window el c =
  let pos = c * window_bits in
  let li = pos / limb_bits and off = pos mod limb_bits in
  let hi =
    if off + window_bits > limb_bits && li + 1 < Array.length el then
      el.(li + 1) lsl (limb_bits - off)
    else 0
  in
  ((el.(li) lsr off) lor hi) land ((1 lsl window_bits) - 1)

let pow ctx b e =
  if Bigint.sign e < 0 then invalid_arg "Montgomery.pow: negative exponent";
  let nbits = Bigint.num_bits e in
  if nbits = 0 then Bigint.erem Bigint.one ctx.n
  else begin
    (* Per-call scratch: one context is shared by every thread that
       holds its group. *)
    let t = scratch ctx in
    let bm = to_m ctx t b in
    (* Table of b^0 .. b^(2^w - 1) in Montgomery form. *)
    let table = Array.make (1 lsl window_bits) ctx.one_m in
    for i = 1 to (1 lsl window_bits) - 1 do
      let x = Array.make ctx.s 0 in
      mul_m ctx t table.(i - 1) bm x;
      table.(i) <- x
    done;
    (* Consume the exponent in w-bit chunks, most significant first. *)
    let el = Nat.limbs (Bigint.to_nat e) in
    let acc = Array.copy ctx.one_m in
    for c = ((nbits + window_bits - 1) / window_bits) - 1 downto 0 do
      for _ = 1 to window_bits do
        mul_m ctx t acc acc acc
      done;
      let v = window el c in
      if v <> 0 then mul_m ctx t acc table.(v) acc
    done;
    of_m ctx t acc
  end
