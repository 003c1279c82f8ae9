open Dmw_bigint

(* race: confined readonly: sieved once at module load, read-only
   afterwards. *)
let small_primes =
  let limit = 1000 in
  let sieve = Array.make (limit + 1) true in
  sieve.(0) <- false;
  sieve.(1) <- false;
  for i = 2 to limit do
    if sieve.(i) then begin
      let j = ref (i * i) in
      while !j <= limit do
        sieve.(!j) <- false;
        j := !j + i
      done
    end
  done;
  let out = ref [] in
  for i = limit downto 2 do
    if sieve.(i) then out := i :: !out
  done;
  Array.of_list !out

let is_prime_int n =
  if n < 2 then false
  else begin
    let rec go d = d * d > n || (n mod d <> 0 && go (d + 2)) in
    n = 2 || (n land 1 = 1 && go 3)
  end

(* Decompose n - 1 = d * 2^s with d odd. *)
let decompose n =
  let n1 = Bigint.sub n Bigint.one in
  let rec go d s = if Bigint.is_even d then go (Bigint.shift_right d 1) (s + 1) else (d, s) in
  go n1 0

(* [pow b e] computes [b^e mod n]. *)
let witness pow n a =
  let n1 = Bigint.sub n Bigint.one in
  let d, s = decompose n in
  let x = pow a d in
  if Bigint.equal x Bigint.one || Bigint.equal x n1 then false
  else begin
    let rec squares x i =
      if i >= s - 1 then true (* composite: never reached -1 *)
      else begin
        let x = Zmod.sqr n x in
        if Bigint.equal x n1 then false else squares x (i + 1)
      end
    in
    squares x 0
  end

(* One Montgomery context per large candidate, shared by its rounds. *)
let pow_mod n =
  match Montgomery.for_modulus n with
  | Some ctx -> Montgomery.pow ctx
  | None -> Zmod.pow n

let miller_rabin_witness n a = witness (pow_mod n) n a

let two_pow_32 = Bigint.shift_left Bigint.one 32

let is_prime ?(rounds = 24) g n =
  if Bigint.compare n Bigint.two < 0 then false
  else if Bigint.equal n Bigint.two then true
  else if Bigint.is_even n then false
  else begin
    let small =
      Array.exists
        (fun p ->
          let bp = Bigint.of_int p in
          Bigint.compare bp n < 0 && Bigint.is_zero (Bigint.erem n bp))
        small_primes
    in
    if small then false
    else if
      (match Bigint.to_int n with Some v -> v < 1_000_000 | None -> false)
    then is_prime_int (Bigint.to_int_exn n)
    else begin
      let witnesses =
        if Bigint.compare n two_pow_32 < 0 then
          (* Deterministic for n < 2^32 (Jaeschke). *)
          List.filter
            (fun a -> Bigint.compare a (Bigint.sub n Bigint.two) <= 0)
            [ Bigint.of_int 2; Bigint.of_int 7; Bigint.of_int 61 ]
        else begin
          let lo = Bigint.two and hi = Bigint.sub n Bigint.two in
          List.init rounds (fun _ -> Prng.in_range g ~lo ~hi)
        end
      in
      let pow = pow_mod n in
      not (List.exists (witness pow n) witnesses)
    end
  end
