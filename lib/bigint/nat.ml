(* Little-endian limbs in base 2^30. Invariant: no trailing zero limb;
   zero is [||]. Base 2^30 keeps every intermediate product of two
   limbs, and every two-limb dividend used by Knuth's algorithm D,
   inside OCaml's 63-bit native [int]. *)

type t = int array

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

let zero : t = [||]
let is_zero a = Array.length a = 0

(* Drop trailing zero limbs so that representations are canonical. *)
let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else if n < base then [| n |]
  else if n < base * base then [| n land mask; n lsr base_bits |]
  else [| n land mask; (n lsr base_bits) land mask; n lsr (2 * base_bits) |]

let one = of_int 1
let two = of_int 2

let to_int a =
  (* A native int holds at most 62 bits, i.e. strictly fewer than
     3 limbs unless the third limb is small. *)
  match Array.length a with
  | 0 -> Some 0
  | 1 -> Some a.(0)
  | 2 -> Some (a.(0) lor (a.(1) lsl base_bits))
  | 3 when a.(2) < 1 lsl (62 - (2 * base_bits)) ->
      Some (a.(0) lor (a.(1) lsl base_bits) lor (a.(2) lsl (2 * base_bits)))
  | _ -> None

let to_int_exn a =
  match to_int a with
  | Some i -> i
  (* lint: allow partial: partiality is this function's documented
     contract (the [_exn] suffix); callers wanting totality use to_int. *)
  | None -> failwith "Nat.to_int_exn: value too large"

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s =
      (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry
    in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(lr - 1) <- !carry;
  normalize r

let add_int a k =
  if k < 0 || k >= base then invalid_arg "Nat.add_int: out of range";
  if k = 0 then a else add a [| k |]

let sub a b =
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let mul_int a k =
  if k < 0 || k >= base then invalid_arg "Nat.mul_int: out of range";
  if k = 0 || is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let p = (a.(i) * k) + !carry in
      r.(i) <- p land mask;
      carry := p lsr base_bits
    done;
    r.(la) <- !carry;
    normalize r
  end

let mul_schoolbook a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        (* ai*bj <= (2^30-1)^2 < 2^60; adding two limbs stays < 2^62. *)
        let p = (ai * b.(j)) + r.(i + j) + !carry in
        r.(i + j) <- p land mask;
        carry := p lsr base_bits
      done;
      (* Propagate the final carry; it can itself overflow a limb when
         accumulated with existing content. *)
      let k = ref (i + lb) in
      let c = ref !carry in
      while !c <> 0 do
        let s = r.(!k) + !c in
        r.(!k) <- s land mask;
        c := s lsr base_bits;
        incr k
      done
    end
  done;
  normalize r

let karatsuba_threshold = 32

(* Split [a] at limb index [k]: low part and high part. *)
let split a k =
  let la = Array.length a in
  if la <= k then (a, zero)
  else (normalize (Array.sub a 0 k), normalize (Array.sub a k (la - k)))

let shift_limbs a k =
  if is_zero a then zero
  else begin
    let la = Array.length a in
    let r = Array.make (la + k) 0 in
    Array.blit a 0 r k la;
    r
  end

let rec mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else if la = 1 then mul_int b a.(0)
  else if lb = 1 then mul_int a b.(0)
  else if min la lb < karatsuba_threshold then mul_schoolbook a b
  else begin
    let k = (max la lb + 1) / 2 in
    let a0, a1 = split a k and b0, b1 = split b k in
    let z0 = mul a0 b0 in
    let z2 = mul a1 b1 in
    let z1 = sub (mul (add a0 a1) (add b0 b1)) (add z0 z2) in
    add z0 (add (shift_limbs z1 k) (shift_limbs z2 (2 * k)))
  end

let shift_left a n =
  if n < 0 then invalid_arg "Nat.shift_left: negative";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limbs + 1) 0 in
    if bits = 0 then Array.blit a 0 r limbs la
    else begin
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (a.(i) lsl bits) lor !carry in
        r.(i + limbs) <- v land mask;
        carry := v lsr base_bits
      done;
      r.(la + limbs) <- !carry
    end;
    normalize r
  end

let shift_right a n =
  if n < 0 then invalid_arg "Nat.shift_right: negative";
  if is_zero a || n = 0 then a
  else begin
    let limbs = n / base_bits and bits = n mod base_bits in
    let la = Array.length a in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      if bits = 0 then Array.blit a limbs r 0 lr
      else begin
        for i = 0 to lr - 1 do
          let lo = a.(i + limbs) lsr bits in
          let hi =
            if i + limbs + 1 < la then
              (a.(i + limbs + 1) lsl (base_bits - bits)) land mask
            else 0
          in
          r.(i) <- lo lor hi
        done
      end;
      normalize r
    end
  end

let bits_of_limb v =
  let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let num_bits a =
  let la = Array.length a in
  if la = 0 then 0 else ((la - 1) * base_bits) + bits_of_limb a.(la - 1)

let testbit a i =
  if i < 0 then invalid_arg "Nat.testbit: negative index";
  let limb = i / base_bits and bit = i mod base_bits in
  limb < Array.length a && (a.(limb) lsr bit) land 1 = 1

let is_even a = not (testbit a 0)

let divmod_int a k =
  if k <= 0 || k >= base then invalid_arg "Nat.divmod_int: out of range";
  let la = Array.length a in
  if la = 0 then (zero, 0)
  else begin
    let q = Array.make la 0 in
    let r = ref 0 in
    for i = la - 1 downto 0 do
      let cur = (!r lsl base_bits) lor a.(i) in
      q.(i) <- cur / k;
      r := cur mod k
    done;
    (normalize q, !r)
  end

(* Knuth TAOCP vol. 2, Algorithm 4.3.1 D.  [a] and [b] are normalized;
   requires [Array.length b >= 2] (single-limb divisors take the fast
   path) and [a >= b]. *)
let divmod_knuth a b =
  let shift = base_bits - bits_of_limb b.(Array.length b - 1) in
  let u0 = shift_left a shift and v = shift_left b shift in
  let n = Array.length v in
  (* Dividend buffer with one extra high limb. *)
  let lu = Array.length u0 in
  let u = Array.make (lu + 1) 0 in
  Array.blit u0 0 u 0 lu;
  let m = lu - n in
  if m < 0 then (zero, a)
  else begin
    let q = Array.make (m + 1) 0 in
    let vh = v.(n - 1) and vl = v.(n - 2) in
    for j = m downto 0 do
      let top = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
      let qhat = ref (top / vh) and rhat = ref (top mod vh) in
      if !qhat >= base then begin
        (* qhat can exceed base-1 by at most 1 when u(j+n) = vh. *)
        let excess = !qhat - (base - 1) in
        qhat := base - 1;
        rhat := !rhat + (excess * vh)
      end;
      let continue = ref true in
      while !continue && !rhat < base do
        if !qhat * vl > (!rhat lsl base_bits) lor u.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + vh
        end
        else continue := false
      done;
      (* Multiply and subtract: u[j..j+n] -= qhat * v. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr base_bits;
        let d = u.(i + j) - (p land mask) - !borrow in
        if d < 0 then begin
          u.(i + j) <- d + base;
          borrow := 1
        end
        else begin
          u.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* qhat was one too large: add back. *)
        u.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !c in
          u.(i + j) <- s land mask;
          c := s lsr base_bits
        done;
        u.(j + n) <- (u.(j + n) + !c) land mask
      end
      else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = normalize (Array.sub u 0 n) in
    (normalize q, shift_right r shift)
  end

let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = divmod_int a b.(0) in
    (q, of_int r)
  end
  else divmod_knuth a b

(* Decimal I/O works in chunks of 10^9 (a single limb). *)
let decimal_chunk = 1_000_000_000
let decimal_chunk_digits = 9

let to_string a =
  if is_zero a then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec go a acc =
      if is_zero a then acc
      else begin
        let q, r = divmod_int a decimal_chunk in
        go q (r :: acc)
      end
    in
    match go a [] with
    | [] -> "0"
    | first :: rest ->
        Buffer.add_string buf (string_of_int first);
        List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest;
        Buffer.contents buf
  end

let to_hex a =
  if is_zero a then "0"
  else begin
    let nibbles = (num_bits a + 3) / 4 in
    let buf = Buffer.create nibbles in
    for i = nibbles - 1 downto 0 do
      let v =
        ((if testbit a ((4 * i) + 3) then 8 else 0)
        lor (if testbit a ((4 * i) + 2) then 4 else 0)
        lor (if testbit a ((4 * i) + 1) then 2 else 0)
        lor if testbit a (4 * i) then 1 else 0)
      in
      Buffer.add_char buf "0123456789abcdef".[v]
    done;
    Buffer.contents buf
  end

let of_string_dec s =
  let acc = ref zero and chunk = ref 0 and chunk_len = ref 0 and seen = ref false in
  String.iter
    (fun ch ->
      match ch with
      | '0' .. '9' ->
          seen := true;
          chunk := (!chunk * 10) + (Char.code ch - Char.code '0');
          incr chunk_len;
          if !chunk_len = decimal_chunk_digits then begin
            acc := add_int (mul_int !acc decimal_chunk) !chunk;
            chunk := 0;
            chunk_len := 0
          end
      | '_' -> ()
      | _ -> invalid_arg "Nat.of_string: bad decimal digit")
    s;
  if not !seen then invalid_arg "Nat.of_string: empty";
  if !chunk_len > 0 then begin
    let scale =
      let rec pow10 n = if n = 0 then 1 else 10 * pow10 (n - 1) in
      pow10 !chunk_len
    in
    acc := add_int (mul_int !acc scale) !chunk
  end;
  !acc

let of_string_hex s =
  let acc = ref zero and seen = ref false in
  String.iter
    (fun ch ->
      let v =
        match ch with
        | '0' .. '9' -> Char.code ch - Char.code '0'
        | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
        | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
        | '_' -> -1
        | _ -> invalid_arg "Nat.of_string: bad hex digit"
      in
      if v >= 0 then begin
        seen := true;
        acc := add_int (mul_int !acc 16) v
      end)
    s;
  if not !seen then invalid_arg "Nat.of_string: empty";
  !acc

let of_string s =
  if String.length s >= 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then
    of_string_hex (String.sub s 2 (String.length s - 2))
  else of_string_dec s

let byte_size a = max 1 ((num_bits a + 7) / 8)

let to_bytes_be a =
  let n = byte_size a in
  String.init n (fun i ->
      let byte_index = n - 1 - i in
      let v =
        ((if testbit a ((8 * byte_index) + 7) then 128 else 0)
        lor (if testbit a ((8 * byte_index) + 6) then 64 else 0)
        lor (if testbit a ((8 * byte_index) + 5) then 32 else 0)
        lor (if testbit a ((8 * byte_index) + 4) then 16 else 0)
        lor (if testbit a ((8 * byte_index) + 3) then 8 else 0)
        lor (if testbit a ((8 * byte_index) + 2) then 4 else 0)
        lor (if testbit a ((8 * byte_index) + 1) then 2 else 0)
        lor if testbit a (8 * byte_index) then 1 else 0)
      in
      Char.chr v)

let of_bytes_be s =
  let acc = ref zero in
  String.iter (fun ch -> acc := add_int (mul_int !acc 256) (Char.code ch)) s;
  !acc

let pp fmt a = Format.pp_print_string fmt (to_string a)
let limbs a = Array.copy a

let of_limbs a =
  if Array.exists (fun l -> l < 0 || l > mask) a then
    invalid_arg "Nat.of_limbs: limb out of range";
  (* [normalize] may return its argument, so copy first. *)
  normalize (Array.copy a)
