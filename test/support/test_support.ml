(* Shared helpers for the test suites: qcheck generators for bignums
   and alcotest testables for the repository's core types. *)

open Dmw_bigint

let bigint_testable = Alcotest.testable Bigint.pp Bigint.equal

(* A positive Bigint with up to [max_bits] bits, biased toward
   interesting sizes (small values, limb boundaries, large values). *)
let gen_nat ?(max_bits = 256) () =
  let open QCheck.Gen in
  let* choice = int_bound 9 in
  match choice with
  | 0 -> map Bigint.of_int (int_bound 2)
  | 1 ->
      (* Around the 2^30 limb boundary. *)
      let* d = int_range (-2) 2 in
      return (Bigint.add (Bigint.shift_left Bigint.one 30) (Bigint.of_int (max 0 (d + 2))))
  | 2 ->
      (* Around the 2^60 double-limb boundary. *)
      let* d = int_range 0 4 in
      return (Bigint.add (Bigint.shift_left Bigint.one 60) (Bigint.of_int d))
  | _ ->
      let* bits = int_range 1 max_bits in
      let* seed = int_range 0 max_int in
      return (Prng.bits (Prng.create ~seed) bits)

let gen_bigint ?max_bits () =
  let open QCheck.Gen in
  let* mag = gen_nat ?max_bits () in
  let* negate = bool in
  return (if negate then Bigint.neg mag else mag)

let arb_nat ?max_bits () =
  QCheck.make ~print:Bigint.to_string (gen_nat ?max_bits ())

let arb_bigint ?max_bits () =
  QCheck.make ~print:Bigint.to_string (gen_bigint ?max_bits ())

(* A nonzero canonical residue mod [q]. *)
let gen_residue q =
  let open QCheck.Gen in
  let* seed = int_range 0 max_int in
  return (Prng.in_range (Prng.create ~seed) ~lo:Bigint.one ~hi:(Bigint.sub q Bigint.one))

let arb_residue q = QCheck.make ~print:Bigint.to_string (gen_residue q)

let qsuite name tests =
  (name, List.map QCheck_alcotest.to_alcotest tests)

let check_bigint msg expected actual = Alcotest.check bigint_testable msg expected actual

let small_group () = Dmw_modular.Group.standard ~bits:64
let tiny_group () = Dmw_modular.Group.standard ~bits:32

(* ------------------------------------------------------------------ *)
(* A minimal JSON reader for the golden fault-trace vectors. The
   container carries no JSON library, and the vectors only need the
   core grammar: objects, arrays, strings (escapes limited to quote,
   backslash, slash, newline and tab), integers/floats,
   true/false/null. Strict enough to reject malformed vectors loudly
   rather than misread them. *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Parse_error of string

  let parse (s : string) : t =
    let n = String.length s in
    let pos = ref 0 in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at byte %d" msg !pos)) in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') -> advance (); skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word value =
      String.iter (fun c -> expect c) word;
      value
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
            advance ();
            (match peek () with
            | Some '"' -> Buffer.add_char b '"'
            | Some '\\' -> Buffer.add_char b '\\'
            | Some '/' -> Buffer.add_char b '/'
            | Some 'n' -> Buffer.add_char b '\n'
            | Some 't' -> Buffer.add_char b '\t'
            | _ -> fail "unsupported escape");
            advance ();
            go ()
        | Some c -> advance (); Buffer.add_char b c; go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let start = !pos in
      let numchar = function
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c when numchar c -> true | _ -> false) do
        advance ()
      done;
      match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number"
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '{' ->
          advance ();
          skip_ws ();
          if peek () = Some '}' then (advance (); Obj [])
          else begin
            let rec members acc =
              skip_ws ();
              let key = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); members ((key, v) :: acc)
              | Some '}' -> advance (); Obj (List.rev ((key, v) :: acc))
              | _ -> fail "expected ',' or '}'"
            in
            members []
          end
      | Some '[' ->
          advance ();
          skip_ws ();
          if peek () = Some ']' then (advance (); Arr [])
          else begin
            let rec elements acc =
              let v = parse_value () in
              skip_ws ();
              match peek () with
              | Some ',' -> advance (); elements (v :: acc)
              | Some ']' -> advance (); Arr (List.rev (v :: acc))
              | _ -> fail "expected ',' or ']'"
            in
            elements []
          end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
      | None -> fail "unexpected end of input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let of_file path =
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let content = really_input_string ic len in
    close_in ic;
    parse content

  (* Accessors: loud failure beats a silently missing field in a
     golden vector. *)
  let member key = function
    | Obj fields -> (
        match List.assoc_opt key fields with
        | Some v -> v
        | None -> raise (Parse_error ("missing field " ^ key)))
    | _ -> raise (Parse_error ("not an object at field " ^ key))

  let to_int = function
    | Num f when Float.is_integer f -> int_of_float f
    | _ -> raise (Parse_error "expected an integer")

  let to_string = function
    | Str s -> s
    | _ -> raise (Parse_error "expected a string")

  let to_bool = function
    | Bool b -> b
    | _ -> raise (Parse_error "expected a bool")

  let to_list = function
    | Arr l -> l
    | _ -> raise (Parse_error "expected an array")

  let to_int_array v = Array.of_list (List.map to_int (to_list v))
end

(* A protocol run's counts, read from its own Dmw_obs scope. *)
let run_total name (r : Dmw_exec.result) =
  Dmw_obs.Metrics.total ~scope:r.Dmw_exec.metrics name

let run_messages = run_total "dmw_messages_total"
let run_bytes = run_total "dmw_bytes_total"

let run_messages_by_tag (r : Dmw_exec.result) =
  Dmw_obs.Metrics.totals_by ~scope:r.Dmw_exec.metrics ~label:"tag"
    "dmw_messages_total"
