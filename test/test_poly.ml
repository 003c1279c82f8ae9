(* Tests for the polynomial layer: Poly, Lagrange and
   Degree_resolution. *)

open Dmw_bigint
open Dmw_modular
open Dmw_poly
open Test_support

let bi = Bigint.of_string
let q = (small_group ()).Group.q
let q17 = bi "17"
let rng () = Prng.create ~seed:2024

let poly coeffs = Poly.create ~modulus:q17 (List.map Bigint.of_int coeffs)

(* ------------------------------------------------------------------ *)
(* Poly units                                                          *)

let test_degree_normalization () =
  Alcotest.(check int) "zero" (-1) (Poly.degree (Poly.zero ~modulus:q17));
  Alcotest.(check int) "constant" 0 (Poly.degree (poly [ 5 ]));
  Alcotest.(check int) "trailing zeros dropped" 1 (Poly.degree (poly [ 1; 2; 0; 0 ]));
  Alcotest.(check int) "coeff reduced to zero" 0 (Poly.degree (poly [ 3; 17 ]))

let test_coeff_access () =
  let p = poly [ 1; 2; 3 ] in
  check_bigint "a0" Bigint.one (Poly.coeff p 0);
  check_bigint "a2" (bi "3") (Poly.coeff p 2);
  check_bigint "beyond degree" Bigint.zero (Poly.coeff p 7)

let test_eval_horner () =
  (* p(x) = 1 + 2x + 3x^2 at x = 2 -> 17 -> 0 mod 17 *)
  let p = poly [ 1; 2; 3 ] in
  check_bigint "p(2)" Bigint.zero (Poly.eval p (bi "2"));
  check_bigint "p(0)" Bigint.one (Poly.eval p Bigint.zero);
  check_bigint "p(1)" (bi "6") (Poly.eval p Bigint.one)

let test_add_sub_mul () =
  let a = poly [ 1; 2 ] and b = poly [ 3; 15 ] in
  Alcotest.(check bool) "add" true (Poly.equal (Poly.add a b) (poly [ 4; 0 ]));
  Alcotest.(check bool) "sub" true (Poly.equal (Poly.sub a b) (poly [ 15; 4 ]));
  (* (1+2x)(3+15x) = 3 + 21x + 30x^2 = 3 + 4x + 13x^2 mod 17 *)
  Alcotest.(check bool) "mul" true (Poly.equal (Poly.mul a b) (poly [ 3; 4; 13 ]))

let test_mul_zero () =
  let a = poly [ 1; 2 ] in
  Alcotest.(check int) "degree" (-1)
    (Poly.degree (Poly.mul a (Poly.zero ~modulus:q17)))

let test_scale () =
  Alcotest.(check bool) "scale" true
    (Poly.equal (Poly.scale (poly [ 1; 2 ]) (bi "3")) (poly [ 3; 6 ]))

let test_modulus_mismatch () =
  let a = poly [ 1 ] and b = Poly.create ~modulus:(bi "19") [ Bigint.one ] in
  Alcotest.check_raises "mismatch" (Invalid_argument "Poly: modulus mismatch")
    (fun () -> ignore (Poly.add a b))

let test_random_exact_degree () =
  let g = rng () in
  for d = 1 to 12 do
    let p = Poly.random g ~modulus:q ~degree:d ~zero_constant:true in
    Alcotest.(check int) "degree" d (Poly.degree p);
    check_bigint "zero constant" Bigint.zero (Poly.coeff p 0);
    let p' = Poly.random g ~modulus:q ~degree:d ~zero_constant:false in
    Alcotest.(check bool) "nonzero constant" false (Bigint.is_zero (Poly.coeff p' 0))
  done

let test_random_degree_zero () =
  let g = rng () in
  let p = Poly.random g ~modulus:q ~degree:0 ~zero_constant:true in
  Alcotest.(check int) "zero poly" (-1) (Poly.degree p)

(* ------------------------------------------------------------------ *)
(* Poly properties                                                     *)

let arb_poly ?(max_degree = 8) () =
  let gen =
    let open QCheck.Gen in
    let* d = int_range 0 max_degree in
    let* seed = int_range 0 max_int in
    let g = Prng.create ~seed in
    return
      (Poly.create ~modulus:q
         (List.init (d + 1) (fun _ -> Prng.below g q)))
  in
  QCheck.make ~print:(Format.asprintf "%a" Poly.pp) gen

let prop_eval_morphism_add =
  QCheck.Test.make ~count:100 ~name:"(a+b)(x) = a(x) + b(x)"
    (QCheck.triple (arb_poly ()) (arb_poly ()) (arb_residue q))
    (fun (a, b, x) ->
      Bigint.equal
        (Poly.eval (Poly.add a b) x)
        (Zmod.add q (Poly.eval a x) (Poly.eval b x)))

let prop_eval_morphism_mul =
  QCheck.Test.make ~count:100 ~name:"(a*b)(x) = a(x) * b(x)"
    (QCheck.triple (arb_poly ()) (arb_poly ()) (arb_residue q))
    (fun (a, b, x) ->
      Bigint.equal
        (Poly.eval (Poly.mul a b) x)
        (Zmod.mul q (Poly.eval a x) (Poly.eval b x)))

let prop_mul_degree_adds =
  QCheck.Test.make ~count:100 ~name:"deg(a*b) = deg a + deg b"
    (QCheck.pair QCheck.(int_range 1 8) QCheck.(int_range 1 8))
    (fun (da, db) ->
      let g = rng () in
      let a = Poly.random g ~modulus:q ~degree:da ~zero_constant:false in
      let b = Poly.random g ~modulus:q ~degree:db ~zero_constant:false in
      Poly.degree (Poly.mul a b) = da + db)

(* ------------------------------------------------------------------ *)
(* Lagrange                                                            *)

let alphas s = Array.init s (fun i -> Bigint.of_int (i + 1))

let test_lagrange_recovers_constant_term () =
  let g = rng () in
  for d = 0 to 6 do
    let p = Poly.random g ~modulus:q ~degree:d ~zero_constant:false in
    let points = alphas (d + 1) in
    let values = Array.map (Poly.eval p) points in
    check_bigint
      (Printf.sprintf "deg %d" d)
      (Poly.coeff p 0)
      (Lagrange.interpolate_at_zero ~modulus:q points values)
  done

let test_lagrange_agrees_with_paper_algorithm () =
  let g = rng () in
  for _ = 1 to 20 do
    let p = Poly.random g ~modulus:q ~degree:5 ~zero_constant:true in
    let points = alphas 7 in
    let values = Array.map (Poly.eval p) points in
    check_bigint "agree"
      (Lagrange.interpolate_at_zero ~modulus:q points values)
      (Lagrange.interpolate_at_zero_paper ~modulus:q points values)
  done

let test_lagrange_rejects_bad_points () =
  let vals = [| Bigint.one; Bigint.one |] in
  Alcotest.check_raises "zero point" (Invalid_argument "Lagrange: zero point")
    (fun () ->
      ignore (Lagrange.interpolate_at_zero ~modulus:q [| Bigint.zero; Bigint.one |] vals));
  Alcotest.check_raises "duplicate" (Invalid_argument "Lagrange: duplicate point")
    (fun () ->
      ignore (Lagrange.interpolate_at_zero ~modulus:q [| Bigint.one; Bigint.one |] vals));
  Alcotest.check_raises "mismatch"
    (Invalid_argument "Lagrange: points/values length mismatch") (fun () ->
      ignore (Lagrange.interpolate_at_zero ~modulus:q (alphas 3) vals))

let test_lagrange_underdetermined_nonzero () =
  (* With s <= deg f points, the interpolation of a zero-constant
     polynomial is nonzero (w.h.p.): the protocol's security hinges on
     this. *)
  let g = rng () in
  for _ = 1 to 20 do
    let p = Poly.random g ~modulus:q ~degree:6 ~zero_constant:true in
    for s = 1 to 6 do
      let points = alphas s in
      let values = Array.map (Poly.eval p) points in
      Alcotest.(check bool)
        (Printf.sprintf "s=%d nonzero" s)
        false
        (Bigint.is_zero (Lagrange.interpolate_at_zero ~modulus:q points values))
    done
  done

let prop_rho_weights_sum_correctly =
  (* For the constant polynomial 1, interpolation at zero gives 1, so
     Σ ρ_k = 1. *)
  QCheck.Test.make ~count:50 ~name:"sum of rho = 1"
    QCheck.(int_range 1 10)
    (fun s ->
      let r = Lagrange.rho ~modulus:q (alphas s) in
      Bigint.equal Bigint.one
        (Array.fold_left (fun acc x -> Zmod.add q acc x) Bigint.zero r))

(* The pairwise formula ρ_j = Π_{i≠j} α_i / (α_i − α_j), one division
   per factor: the reference the batched-inversion [rho] must match. *)
let rho_pairwise ~modulus points =
  Array.mapi
    (fun j aj ->
      let acc = ref Bigint.one in
      Array.iteri
        (fun i ai ->
          if i <> j then
            acc := Zmod.mul modulus !acc (Zmod.div modulus ai (Zmod.sub modulus ai aj)))
        points;
      !acc)
    points

let prop_rho_matches_pairwise =
  QCheck.Test.make ~count:200 ~name:"rho = pairwise formula"
    QCheck.(pair (int_range 1 12) int)
    (fun (s, seed) ->
      (* Distinct nonzero points drawn from all of Z_q, not just 1..s. *)
      let g = Prng.create ~seed in
      let rec draw acc =
        if List.length acc = s then Array.of_list acc
        else
          let a = Prng.in_range g ~lo:Bigint.one ~hi:(Bigint.sub q Bigint.one) in
          draw (if List.exists (Bigint.equal a) acc then acc else a :: acc)
      in
      let points = draw [] in
      Array.for_all2 Bigint.equal
        (rho_pairwise ~modulus:q points)
        (Lagrange.rho ~modulus:q points))

(* ------------------------------------------------------------------ *)
(* Degree resolution                                                   *)

let test_resolution_exact () =
  let g = rng () in
  for d = 1 to 10 do
    let p = Poly.random g ~modulus:q ~degree:d ~zero_constant:true in
    let points = alphas 12 in
    let values = Array.map (Poly.eval p) points in
    Alcotest.(check (option int))
      (Printf.sprintf "deg %d" d)
      (Some d)
      (Degree_resolution.resolve_exact ~modulus:q ~points ~values)
  done

let test_resolution_test_threshold () =
  (* test d succeeds iff d >= deg f. *)
  let g = rng () in
  let p = Poly.random g ~modulus:q ~degree:5 ~zero_constant:true in
  let points = alphas 10 in
  let values = Array.map (Poly.eval p) points in
  for d = 1 to 9 do
    Alcotest.(check bool)
      (Printf.sprintf "candidate %d" d)
      (d >= 5)
      (Degree_resolution.test ~modulus:q ~points ~values ~candidate:d)
  done

let test_resolution_candidate_filtering () =
  let g = rng () in
  let p = Poly.random g ~modulus:q ~degree:4 ~zero_constant:true in
  let points = alphas 8 in
  let values = Array.map (Poly.eval p) points in
  (* Candidates exclude the true degree: smallest passing candidate
     above it is returned. *)
  Alcotest.(check (option int)) "skip to next" (Some 6)
    (Degree_resolution.resolve ~modulus:q ~points ~values ~candidates:[ 2; 3; 6 ]);
  (* All candidates below the degree fail. *)
  Alcotest.(check (option int)) "none" None
    (Degree_resolution.resolve ~modulus:q ~points ~values ~candidates:[ 1; 2; 3 ]);
  (* Candidates that need more shares than available are dropped. *)
  Alcotest.(check (option int)) "too large dropped" None
    (Degree_resolution.resolve ~modulus:q ~points ~values ~candidates:[ 20 ])

let test_resolution_insufficient_shares () =
  let g = rng () in
  let p = Poly.random g ~modulus:q ~degree:6 ~zero_constant:true in
  let points = alphas 4 in
  let values = Array.map (Poly.eval p) points in
  Alcotest.(check (option int)) "underdetermined" None
    (Degree_resolution.resolve_exact ~modulus:q ~points ~values)

let test_resolution_sum_of_polynomials () =
  (* The protocol resolves deg(Σ e_i) = max_i deg e_i: check the sum
     behaves as the encoding requires. *)
  let g = rng () in
  let degrees = [ 3; 5; 2; 5; 4 ] in
  let polys =
    List.map (fun d -> Poly.random g ~modulus:q ~degree:d ~zero_constant:true) degrees
  in
  let sum = List.fold_left Poly.add (Poly.zero ~modulus:q) polys in
  let points = alphas 8 in
  let values = Array.map (Poly.eval sum) points in
  Alcotest.(check (option int)) "max degree" (Some 5)
    (Degree_resolution.resolve_exact ~modulus:q ~points ~values)

let prop_resolution_random_degrees =
  QCheck.Test.make ~count:100 ~name:"resolution recovers random degrees"
    QCheck.(pair (int_range 1 9) (int_range 0 10000))
    (fun (d, seed) ->
      let g = Prng.create ~seed in
      let p = Poly.random g ~modulus:q ~degree:d ~zero_constant:true in
      let points = alphas 10 in
      let values = Array.map (Poly.eval p) points in
      Degree_resolution.resolve_exact ~modulus:q ~points ~values = Some d)

(* ------------------------------------------------------------------ *)
(* Shamir (standard free-term sharing, for contrast)                   *)

let test_shamir_roundtrip () =
  let g = rng () in
  for threshold = 0 to 5 do
    let secret = Prng.below g q in
    let points = alphas 8 in
    let shares = Shamir.deal g ~modulus:q ~secret ~threshold ~points in
    (* Any threshold+1 shares reconstruct. *)
    let subset = Array.sub shares 0 (threshold + 1) in
    check_bigint
      (Printf.sprintf "threshold %d" threshold)
      secret
      (Shamir.reconstruct ~modulus:q subset);
    (* A different subset also works. *)
    let subset2 = Array.sub shares (8 - threshold - 1) (threshold + 1) in
    check_bigint "other subset" secret (Shamir.reconstruct ~modulus:q subset2)
  done

let test_shamir_insufficient_shares_garbage () =
  let g = rng () in
  let secret = Bigint.of_int 42 in
  let shares =
    Shamir.deal g ~modulus:q ~secret ~threshold:4 ~points:(alphas 8)
  in
  (* 4 shares of a threshold-4 sharing: reconstruction is not the
     secret (w.h.p.). *)
  let r = Shamir.reconstruct ~modulus:q (Array.sub shares 0 4) in
  Alcotest.(check bool) "garbage" false (Bigint.equal r secret)

let test_shamir_additive () =
  let g = rng () in
  let points = alphas 6 in
  let s1 = Prng.below g q and s2 = Prng.below g q in
  let sh1 = Shamir.deal g ~modulus:q ~secret:s1 ~threshold:2 ~points in
  let sh2 = Shamir.deal g ~modulus:q ~secret:s2 ~threshold:2 ~points in
  let sum = Array.map2 (Shamir.add_shares ~modulus:q) sh1 sh2 in
  check_bigint "sum of secrets" (Zmod.add q s1 s2)
    (Shamir.reconstruct ~modulus:q (Array.sub sum 0 3))

let test_shamir_vs_degree_encoding () =
  (* The contrast the paper draws in §3: summing degree-encoded bids
     lets anyone resolve the MAXIMUM encoded value from the sum alone;
     summing Shamir-shared bids only yields the SUM of the values —
     free-term encodings do not compose for max. *)
  let g = rng () in
  let points = alphas 10 in
  let bids = [ 3; 5; 2 ] in
  (* Degree encoding: bid b -> random poly of degree b, zero free term. *)
  let degree_polys =
    List.map (fun b -> Poly.random g ~modulus:q ~degree:b ~zero_constant:true) bids
  in
  let esum = List.fold_left Poly.add (Poly.zero ~modulus:q) degree_polys in
  let values = Array.map (Poly.eval esum) points in
  Alcotest.(check (option int)) "max bid from the sum" (Some 5)
    (Degree_resolution.resolve_exact ~modulus:q ~points ~values);
  (* Shamir: the sum reconstructs Σ bids = 10, revealing nothing about
     the max. *)
  let shamir_shares =
    List.map
      (fun b -> Shamir.deal g ~modulus:q ~secret:(Bigint.of_int b) ~threshold:4 ~points)
      bids
  in
  let summed =
    List.fold_left
      (fun acc sh -> Array.map2 (Shamir.add_shares ~modulus:q) acc sh)
      (List.hd shamir_shares) (List.tl shamir_shares)
  in
  check_bigint "sum of bids" (Bigint.of_int 10)
    (Shamir.reconstruct ~modulus:q (Array.sub summed 0 5))

let test_shamir_validation () =
  let g = rng () in
  Alcotest.check_raises "threshold too large"
    (Invalid_argument "Shamir.deal: need 0 <= threshold < number of points")
    (fun () ->
      ignore
        (Shamir.deal g ~modulus:q ~secret:Bigint.one ~threshold:3
           ~points:(alphas 3)));
  Alcotest.check_raises "mismatched x"
    (Invalid_argument "Shamir.add_shares: mismatched x coordinates") (fun () ->
      ignore
        (Shamir.add_shares ~modulus:q
           { Shamir.x = Bigint.one; y = Bigint.one }
           { Shamir.x = Bigint.two; y = Bigint.one }))

let () =
  Alcotest.run "dmw_poly"
    [ ("poly",
       [ Alcotest.test_case "degree normalization" `Quick test_degree_normalization;
         Alcotest.test_case "coeff access" `Quick test_coeff_access;
         Alcotest.test_case "horner eval" `Quick test_eval_horner;
         Alcotest.test_case "add/sub/mul" `Quick test_add_sub_mul;
         Alcotest.test_case "mul by zero" `Quick test_mul_zero;
         Alcotest.test_case "scale" `Quick test_scale;
         Alcotest.test_case "modulus mismatch" `Quick test_modulus_mismatch;
         Alcotest.test_case "random exact degree" `Quick test_random_exact_degree;
         Alcotest.test_case "random degree zero" `Quick test_random_degree_zero ]);
      qsuite "poly properties"
        [ prop_eval_morphism_add; prop_eval_morphism_mul; prop_mul_degree_adds ];
      ("lagrange",
       [ Alcotest.test_case "recovers constant term" `Quick
           test_lagrange_recovers_constant_term;
         Alcotest.test_case "matches paper algorithm" `Quick
           test_lagrange_agrees_with_paper_algorithm;
         Alcotest.test_case "rejects bad points" `Quick test_lagrange_rejects_bad_points;
         Alcotest.test_case "underdetermined nonzero" `Quick
           test_lagrange_underdetermined_nonzero ]);
      qsuite "lagrange properties"
        [ prop_rho_weights_sum_correctly; prop_rho_matches_pairwise ];
      ("degree resolution",
       [ Alcotest.test_case "exact recovery" `Quick test_resolution_exact;
         Alcotest.test_case "threshold behaviour" `Quick test_resolution_test_threshold;
         Alcotest.test_case "candidate filtering" `Quick test_resolution_candidate_filtering;
         Alcotest.test_case "insufficient shares" `Quick test_resolution_insufficient_shares;
         Alcotest.test_case "sum of polynomials" `Quick test_resolution_sum_of_polynomials ]);
      qsuite "resolution properties" [ prop_resolution_random_degrees ];
      ("shamir",
       [ Alcotest.test_case "roundtrip" `Quick test_shamir_roundtrip;
         Alcotest.test_case "insufficient shares" `Quick
           test_shamir_insufficient_shares_garbage;
         Alcotest.test_case "additive homomorphism" `Quick test_shamir_additive;
         Alcotest.test_case "degree vs free-term encoding" `Quick
           test_shamir_vs_degree_encoding;
         Alcotest.test_case "validation" `Quick test_shamir_validation ]) ]
