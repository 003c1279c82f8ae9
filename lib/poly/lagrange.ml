open Dmw_bigint
open Dmw_modular

let check_points ~modulus points =
  let s = Array.length points in
  if s = 0 then invalid_arg "Lagrange: no interpolation points";
  let seen = Hashtbl.create s in
  Array.iter
    (fun a ->
      let a = Zmod.normalize modulus a in
      if Bigint.is_zero a then invalid_arg "Lagrange: zero point";
      if Hashtbl.mem seen a then invalid_arg "Lagrange: duplicate point";
      Hashtbl.add seen a ())
    points

(* Montgomery's batch inversion: prefix products, one inverse of the
   full product, then a backward pass peeling one factor at a time. *)
let batch_inv q xs =
  let s = Array.length xs in
  let prefix = Array.make s Bigint.one in
  let acc = ref Bigint.one in
  for k = 0 to s - 1 do
    prefix.(k) <- !acc;
    acc := Zmod.mul q !acc xs.(k)
  done;
  (* Invariant: [inv] is the inverse of Π_{i<=k} xs.(i). *)
  let inv = ref (Zmod.inv q !acc) in
  let out = Array.make s Bigint.zero in
  for k = s - 1 downto 0 do
    out.(k) <- Zmod.mul q !inv prefix.(k);
    inv := Zmod.mul q !inv xs.(k)
  done;
  out

let rho ~modulus points =
  check_points ~modulus points;
  let q = modulus in
  let s = Array.length points in
  (* Π_{i≠j} f(i). *)
  let prod_except j f =
    let acc = ref Bigint.one in
    for i = 0 to s - 1 do
      if i <> j then acc := Zmod.mul q !acc (f i)
    done;
    !acc
  in
  let num = Array.init s (fun j -> prod_except j (fun i -> points.(i))) in
  let den =
    Array.init s (fun j ->
        prod_except j (fun i -> Zmod.sub q points.(i) points.(j)))
  in
  Array.map2 (Zmod.mul q) num (batch_inv q den)

let interpolate_at_zero ~modulus points values =
  if Array.length points <> Array.length values then
    invalid_arg "Lagrange: points/values length mismatch";
  let r = rho ~modulus points in
  let acc = ref Bigint.zero in
  Array.iteri (fun j rj -> acc := Zmod.add modulus !acc (Zmod.mul modulus rj values.(j))) r;
  !acc

(* The §2.4 three-step procedure. The paper's Step 1 divides by
   Π_{i≠k}(α_k − α_i); we use (α_i − α_k) so the result matches
   eq. (2) exactly rather than up to the sign (−1)^{s−1} — the two
   differ only by that global sign, which is irrelevant to the
   zero-test the protocol performs but matters for value recovery. *)
let interpolate_at_zero_paper ~modulus points values =
  if Array.length points <> Array.length values then
    invalid_arg "Lagrange: points/values length mismatch";
  check_points ~modulus points;
  let q = modulus in
  let s = Array.length points in
  (* Step 1: ψ_k = f(α_k) / Π_{i≠k}(α_i − α_k). *)
  let psi =
    Array.init s (fun k ->
        let den = ref Bigint.one in
        for i = 0 to s - 1 do
          if i <> k then den := Zmod.mul q !den (Zmod.sub q points.(i) points.(k))
        done;
        Zmod.div q values.(k) !den)
  in
  (* Step 2: φ(0) = Π_k α_k. *)
  let phi0 = Array.fold_left (fun acc a -> Zmod.mul q acc a) Bigint.one points in
  (* Step 3: f^(s)(0) = φ(0) · Σ_k ψ_k / α_k. *)
  let sum = ref Bigint.zero in
  for k = 0 to s - 1 do
    sum := Zmod.add q !sum (Zmod.div q psi.(k) points.(k))
  done;
  Zmod.mul q phi0 !sum
