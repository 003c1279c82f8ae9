(* The linter's own test suite (tools/lint). Each seeded fixture in
   lint_fixtures/ must trip exactly the rule it was written for, the
   clean fixture must produce zero violations (no false positives),
   and scope must be honoured: the same source linted under an
   exempted path is silent. Fixtures are parsed, never compiled. *)

let rules_of vs = List.sort_uniq String.compare (List.map (fun v -> v.Lint.rule) vs)

let pp_violations vs =
  String.concat "; "
    (List.map
       (fun v -> Printf.sprintf "%d:[%s] %s" v.Lint.line v.Lint.rule v.Lint.message)
       vs)

let fixture name = Filename.concat "lint_fixtures" name

let contains ~affix s =
  let na = String.length affix and ns = String.length s in
  let rec go i = i + na <= ns && (String.sub s i na = affix || go (i + 1)) in
  go 0

let check_rules ~rule_path ~file expected =
  let vs = Lint.lint_file ~rule_path (fixture file) in
  Alcotest.(check (list string))
    (Printf.sprintf "%s as %s -> %s" file rule_path (pp_violations vs))
    expected (rules_of vs)

let test_seeded () =
  check_rules ~rule_path:"lib/crypto/bad_r1.ml" ~file:"bad_r1.ml" [ "R1" ];
  check_rules ~rule_path:"lib/crypto/bad_r2.ml" ~file:"bad_r2.ml" [ "R2" ];
  check_rules ~rule_path:"bench/bad_r3.ml" ~file:"bad_r3.ml" [ "R3" ];
  check_rules ~rule_path:"bench/bad_r4.ml" ~file:"bad_r4.ml" [ "R4" ];
  check_rules ~rule_path:"lib/exec/bad_r5.ml" ~file:"bad_r5.ml" [ "R5" ];
  check_rules ~rule_path:"lib/core/bad_r6.ml" ~file:"bad_r6.ml" [ "R6" ];
  check_rules ~rule_path:"lib/exec/bad_r7.ml" ~file:"bad_r7.ml" [ "R7" ];
  check_rules ~rule_path:"lib/exec/bad_r8.ml" ~file:"bad_r8.ml" [ "R8" ]

let test_scope () =
  (* The same sources under exempted paths: R1 inside lib/modular, R3
     anywhere under lib/ (dmw_det's D-random owns that beat on the
     typedtree), R4 outside the concurrent libraries, R5 outside the
     handler set. R6 has no path exemption, only the escape hatch. *)
  check_rules ~rule_path:"lib/modular/bad_r1.ml" ~file:"bad_r1.ml" [];
  check_rules ~rule_path:"lib/bigint/prng.ml" ~file:"bad_r3.ml" [];
  check_rules ~rule_path:"lib/core/bad_r3.ml" ~file:"bad_r3.ml" [];
  check_rules ~rule_path:"lib/mechanism/bad_r4.ml" ~file:"bad_r4.ml" [];
  (* Everywhere under lib/ the bare-mutex beat belongs to dmw_race's
     R-bare; the syntactic rule stands down to avoid double reports. *)
  check_rules ~rule_path:"lib/exec/bad_r4.ml" ~file:"bad_r4.ml" [];
  check_rules ~rule_path:"lib/runtime/bad_r4.ml" ~file:"bad_r4.ml" [];
  check_rules ~rule_path:"lib/mechanism/bad_r5.ml" ~file:"bad_r5.ml" [];
  (* R7 is scoped to lib/ and exempts the Dmw_obs sinks themselves;
     bench and tools print freely. *)
  check_rules ~rule_path:"lib/obs/bad_r7.ml" ~file:"bad_r7.ml" [];
  check_rules ~rule_path:"bench/bad_r7.ml" ~file:"bad_r7.ml" [];
  (* R8 holds in all of lib/, Dmw_obs included; benches, binaries and
     tests drive the root. *)
  check_rules ~rule_path:"bench/bad_r8.ml" ~file:"bad_r8.ml" []

let test_clean () =
  let vs = Lint.lint_file ~rule_path:"lib/exec/clean.ml" (fixture "clean.ml") in
  Alcotest.(check string) "no false positives" "" (pp_violations vs)

let test_positions () =
  (* The seeded violation sits on the [let] past the header comment,
     and the reported file is the path as scanned. *)
  match Lint.lint_file ~rule_path:"lib/core/bad_r6.ml" (fixture "bad_r6.ml") with
  | [ v ] ->
      Alcotest.(check string) "file" (fixture "bad_r6.ml") v.Lint.file;
      Alcotest.(check bool) "line past header" true (v.Lint.line >= 3);
      Alcotest.(check bool) "col sane" true (v.Lint.col >= 0)
  | vs -> Alcotest.failf "expected exactly one violation, got: %s" (pp_violations vs)

let test_output_modes () =
  let vs = Lint.lint_file ~rule_path:"lib/core/bad_r6.ml" (fixture "bad_r6.ml") in
  let human = Lint.human vs in
  Alcotest.(check bool) "human mentions rule" true
    (contains ~affix:"[R6]" human);
  let json = Lint.to_json vs in
  Alcotest.(check bool) "json has rule field" true
    (contains ~affix:"\"rule\":\"R6\"" json);
  Alcotest.(check string) "empty json" "[]\n" (Lint.to_json [])

let test_stale_allow () =
  (* Three allowances: the first suppresses a real R6 (not reported),
     the second excuses nothing (stale), the third has an unknown
     keyword — it fails to suppress the R6 on the next line AND is
     itself stale. *)
  let vs =
    Lint.lint_file ~rule_path:"lib/core/stale_allow.ml"
      (fixture "stale_allow.ml")
  in
  Alcotest.(check (list string))
    (Printf.sprintf "stale_allow.ml -> %s" (pp_violations vs))
    [ "R6"; "stale-allow"; "stale-allow" ]
    (List.sort String.compare (List.map (fun v -> v.Lint.rule) vs));
  let stale_lines =
    List.filter_map
      (fun v -> if v.Lint.rule = "stale-allow" then Some v.Lint.line else None)
      vs
  in
  (* The live allowance closes before line 9; both reported ones sit
     past it. *)
  Alcotest.(check bool) "live allowance not reported" true
    (List.for_all (fun l -> l > 9) stale_lines);
  let json = Lint.to_json vs in
  Alcotest.(check bool) "json carries stale-allow" true
    (contains ~affix:"\"rule\":\"stale-allow\"" json)

let test_allow_in_string () =
  (* Markers inside string literals are no allowances for any of the
     four passes: the R6 they sit above still fires, and there is
     nothing for the hygiene rules (stale-allow, T-annot, D-annot,
     R-annot) to report. *)
  let file = fixture "allow_in_string.ml" in
  let vs = Lint.lint_file ~rule_path:"lib/core/allow_in_string.ml" file in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "allow_in_string.ml -> %s" (pp_violations vs))
    [ ("R6", 12) ]
    (List.map (fun v -> (v.Lint.rule, v.Lint.line)) vs);
  let source = Analysis_kit.Fs.read_file file in
  List.iter
    (fun marker ->
      Alcotest.(check int)
        (Printf.sprintf "no %S allowance" marker)
        0
        (List.length (Analysis_kit.Allow.scan ~marker source)))
    [ "lint: allow "; "taint: declassify "; "det: "; "race: confined " ];
  (* The same marker in a real comment is still an allowance. *)
  match Analysis_kit.Allow.scan ~marker:"lint: allow " "(* lint: allow partial *)\n" with
  | [ a ] -> Alcotest.(check string) "comment keyword" "partial" a.keyword
  | allows -> Alcotest.failf "expected one allowance, got %d" (List.length allows)

let test_parse_error () =
  (* A file that does not parse yields a single "parse" violation
     rather than an exception. *)
  let path = Filename.temp_file "dmw_lint_fixture" ".ml" in
  let oc = open_out path in
  output_string oc "let let = in";
  close_out oc;
  let vs = Lint.lint_file path in
  Sys.remove path;
  Alcotest.(check (list string)) "parse error" [ "parse" ] (rules_of vs)

let () =
  Alcotest.run "dmw_lint"
    [ ( "rules",
        [ Alcotest.test_case "each seeded fixture trips its rule" `Quick
            test_seeded;
          Alcotest.test_case "path scoping" `Quick test_scope;
          Alcotest.test_case "clean fixture: zero false positives" `Quick
            test_clean ] );
      ( "reporting",
        [ Alcotest.test_case "stale allowances are reported" `Quick
            test_stale_allow;
          Alcotest.test_case "markers in string literals are inert" `Quick
            test_allow_in_string;
          Alcotest.test_case "positions" `Quick test_positions;
          Alcotest.test_case "human and json output" `Quick test_output_modes;
          Alcotest.test_case "parse errors are violations" `Quick
            test_parse_error ] ) ]
