(* The race analysis' own test suite (tools/race). The fixtures in
   race_fixtures/ are compiled as a real library so the analysis runs
   on genuine .cmt files; each seeded defect must trip exactly the
   rule it was written for at the pinned location, and the silent
   fixtures (atomic cells, the wrapper shape, interprocedural lock
   summaries, valid confinement annotations) must produce nothing.
   Fabricated [rule_path]s mirror how the real lib/ tree is checked. *)

let cmt name =
  Filename.concat "race_fixtures/.race_fixtures.objs/byte"
    ("race_fixtures__" ^ name ^ ".cmt")

let input ?source ~rule_path name =
  { Race.cmt_path = cmt name; rule_path = Some rule_path; source }

let pp_violations vs =
  String.concat "; "
    (List.map
       (fun v ->
         Printf.sprintf "%s:%d:[%s] %s" v.Race.file v.Race.line v.Race.rule
           v.Race.message)
       vs)

let locs_of vs = List.map (fun v -> (v.Race.rule, v.Race.line)) vs

let contains ~affix s =
  let na = String.length affix and ns = String.length s in
  let rec go i = i + na <= ns && (String.sub s i na = affix || go (i + 1)) in
  go 0

let check ?source ~rule_path name expected =
  let vs = Race.analyze [ input ?source ~rule_path name ] in
  Alcotest.(check (list (pair string int)))
    (Printf.sprintf "%s as %s -> %s" name rule_path (pp_violations vs))
    expected (locs_of vs)

let test_seeded () =
  (* Unguarded module-scope ref and an immutable-but-shared Hashtbl
     field, reported at their declarations. *)
  check ~rule_path:"lib/fixtures/unguarded_ref.ml" "Unguarded_ref"
    [ ("R-unguarded", 4); ("R-unguarded", 6) ];
  (* Locked everywhere, but under two different locks. *)
  check ~rule_path:"lib/fixtures/inconsistent.ml" "Inconsistent"
    [ ("R-lockset", 6) ];
  (* Opposite nesting orders deadlock; reported once per cycle. *)
  check ~rule_path:"lib/fixtures/order_cycle.ml" "Order_cycle"
    [ ("R-order", 9) ];
  (* Raw lock/unlock without the exception-safe shape, plus the cell
     it pretends to guard (the bare sites break the lockset model, so
     the access does not count as locked). *)
  check ~rule_path:"lib/fixtures/bare_mutex.ml" "Bare_mutex"
    [ ("R-unguarded", 5); ("R-bare", 8); ("R-bare", 10) ]

let test_silent () =
  (* Atomics need no locks; the inline wrapper shape is sanctioned;
     with_lock travelling through wrappers and lock parameters still
     yields a consistent lockset. *)
  check ~rule_path:"lib/fixtures/atomic_ok.ml" "Atomic_ok" [];
  check ~rule_path:"lib/fixtures/wrapper_ok.ml" "Wrapper_ok" [];
  check ~rule_path:"lib/fixtures/interproc.ml" "Interproc" []

let test_annotations () =
  (* With the source in view, the valid annotations excuse the two
     unguarded cells entirely. *)
  let source = Analysis_kit.Fs.read_file "race_fixtures/confined_ok.ml" in
  check ~rule_path:"lib/fixtures/confined_ok.ml" ~source "Confined_ok" [];
  (* Without it no annotation applies, so both cells surface. *)
  check ~rule_path:"lib/fixtures/confined_ok.ml" "Confined_ok"
    [ ("R-unguarded", 5); ("R-unguarded", 10) ];
  (* Hygiene: an annotation over a guarded cell is stale, an unknown
     keyword is R-annot and suppresses nothing. *)
  let source = Analysis_kit.Fs.read_file "race_fixtures/stale_confine.ml" in
  check ~rule_path:"lib/fixtures/stale_confine.ml" ~source "Stale_confine"
    [ ("stale-confine", 6); ("R-annot", 9); ("R-unguarded", 10) ]

let test_lint_handoff () =
  (* Satellite of the R4 narrowing: on the same source, every bare
     mutex site the linter's syntactic R4 can see must also be a
     dmw_race R-bare finding — so handing lib/ over to dmw_race loses
     nothing — and R4 itself must be inert under lib/. *)
  let src = "race_fixtures/bare_mutex.ml" in
  let r4_lines =
    Lint.lint_file ~rule_path:"bench/bare_mutex.ml" src
    |> List.filter_map (fun v ->
           if v.Lint.rule = "R4" then Some v.Lint.line else None)
  in
  Alcotest.(check (list int)) "R4 sees both sites" [ 8; 10 ] r4_lines;
  let race_lines =
    Race.analyze [ input ~rule_path:"lib/fixtures/bare_mutex.ml" "Bare_mutex" ]
    |> List.filter_map (fun v ->
           if v.Race.rule = "R-bare" then Some v.Race.line else None)
  in
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (Printf.sprintf "R4 line %d is covered by R-bare" l)
        true (List.mem l race_lines))
    r4_lines;
  Alcotest.(check (list string))
    "R4 stands down inside lib/" []
    (Lint.lint_file ~rule_path:"lib/runtime/bare_mutex.ml" src
    |> List.map (fun v -> v.Lint.rule)
    |> List.filter (fun r -> r = "R4"))

let test_output_modes () =
  let vs =
    Race.analyze
      [ input ~rule_path:"lib/fixtures/unguarded_ref.ml" "Unguarded_ref" ]
  in
  let human = Race.human vs in
  Alcotest.(check bool) "human mentions rule" true
    (contains ~affix:"[R-unguarded]" human);
  Alcotest.(check bool) "human names the cell" true
    (contains ~affix:"Unguarded_ref.hits" human);
  let json = Race.to_json vs in
  Alcotest.(check bool) "json has rule field" true
    (contains ~affix:"\"rule\":\"R-unguarded\"" json);
  Alcotest.(check bool) "json reports the scoped path" true
    (contains ~affix:"\"file\":\"lib/fixtures/unguarded_ref.ml\"" json);
  Alcotest.(check bool) "json pins the line" true
    (contains ~affix:"\"line\":4" json);
  Alcotest.(check string) "empty json" "[]\n" (Race.to_json [])

let test_unreadable_cmt () =
  let vs =
    Race.analyze
      [ { Race.cmt_path = "race_fixtures/no_such.cmt";
          rule_path = None;
          source = None }
      ]
  in
  Alcotest.(check (list string)) "cmt error surfaces" [ "cmt" ]
    (List.map (fun v -> v.Race.rule) vs)

(* Race.to_json of the run below. *)
let full_report =
  {|[{"file":"lib/fixtures/bare_mutex.ml","line":5,"col":4,"rule":"R-unguarded","message":"mutable cell Bare_mutex.cell (ref) is accessed without a lock at lib/fixtures/bare_mutex.ml:9 — guard it with Mutex_util.with_lock, make it Atomic.t, or justify confinement: (* race: confined <owner|router|agent|sim|extern|readonly>: reason *)"},
 {"file":"lib/fixtures/bare_mutex.ml","line":8,"col":2,"rule":"R-bare","message":"bare Mutex.lock outside the exception-safe wrapper shape — use Mutex_util.with_lock (or Mutex.lock l; Fun.protect ~finally:(fun () -> Mutex.unlock l))"},
 {"file":"lib/fixtures/bare_mutex.ml","line":10,"col":2,"rule":"R-bare","message":"bare Mutex.unlock outside the exception-safe wrapper shape — use Mutex_util.with_lock (or Mutex.lock l; Fun.protect ~finally:(fun () -> Mutex.unlock l))"},
 {"file":"lib/fixtures/inconsistent.ml","line":6,"col":4,"rule":"R-lockset","message":"mutable cell Inconsistent.table (Hashtbl.t) has no consistent lockset: {Inconsistent.lock_a} at lib/fixtures/inconsistent.ml:10, {Inconsistent.lock_b} at lib/fixtures/inconsistent.ml:14 — pick one lock for every access, or guard it with Mutex_util.with_lock, make it Atomic.t, or justify confinement: (* race: confined <owner|router|agent|sim|extern|readonly>: reason *)"},
 {"file":"lib/fixtures/order_cycle.ml","line":9,"col":6,"rule":"R-order","message":"lock-order cycle between Order_cycle.lock_a, Order_cycle.lock_b — nested acquisitions must order locks consistently or this can deadlock"},
 {"file":"lib/fixtures/stale_confine.ml","line":6,"col":0,"rule":"stale-confine","message":"(* race: confined owner *) excuses nothing here: the cell it covered is gone, guarded, or atomic — delete the annotation"},
 {"file":"lib/fixtures/stale_confine.ml","line":9,"col":0,"rule":"R-annot","message":"unknown confinement keyword 'everywhere': the annotation must name the confinement regime — one of owner, router, agent, sim, extern, readonly"},
 {"file":"lib/fixtures/stale_confine.ml","line":10,"col":4,"rule":"R-unguarded","message":"mutable cell Stale_confine.other (ref) is accessed without a lock at lib/fixtures/stale_confine.ml:13, lib/fixtures/stale_confine.ml:13 — guard it with Mutex_util.with_lock, make it Atomic.t, or justify confinement: (* race: confined <owner|router|agent|sim|extern|readonly>: reason *)"},
 {"file":"lib/fixtures/unguarded_ref.ml","line":4,"col":4,"rule":"R-unguarded","message":"mutable cell Unguarded_ref.hits (ref) is accessed without a lock at lib/fixtures/unguarded_ref.ml:9, lib/fixtures/unguarded_ref.ml:9, lib/fixtures/unguarded_ref.ml:10 — guard it with Mutex_util.with_lock, make it Atomic.t, or justify confinement: (* race: confined <owner|router|agent|sim|extern|readonly>: reason *)"},
 {"file":"lib/fixtures/unguarded_ref.ml","line":6,"col":14,"rule":"R-unguarded","message":"mutable cell Unguarded_ref.slab.cache (Hashtbl.t) is accessed without a lock at lib/fixtures/unguarded_ref.ml:11 — guard it with Mutex_util.with_lock, make it Atomic.t, or justify confinement: (* race: confined <owner|router|agent|sim|extern|readonly>: reason *)"}]
|}

(* Every fixture in one run, under the rule paths the cases above use
   (with the annotated sources in view). This pins the whole report,
   messages and columns included, which the (rule, line) checks above
   do not cover. *)
let test_full_report () =
  let src f = Some (Analysis_kit.Fs.read_file ("race_fixtures/" ^ f)) in
  let vs =
    Race.analyze
      [ input ~rule_path:"lib/fixtures/unguarded_ref.ml" "Unguarded_ref";
        input ~rule_path:"lib/fixtures/inconsistent.ml" "Inconsistent";
        input ~rule_path:"lib/fixtures/order_cycle.ml" "Order_cycle";
        input ~rule_path:"lib/fixtures/bare_mutex.ml" "Bare_mutex";
        input ~rule_path:"lib/fixtures/atomic_ok.ml" "Atomic_ok";
        input ~rule_path:"lib/fixtures/wrapper_ok.ml" "Wrapper_ok";
        input ~rule_path:"lib/fixtures/interproc.ml" "Interproc";
        input ~rule_path:"lib/fixtures/confined_ok.ml"
          ?source:(src "confined_ok.ml") "Confined_ok";
        input ~rule_path:"lib/fixtures/stale_confine.ml"
          ?source:(src "stale_confine.ml") "Stale_confine" ]
  in
  Alcotest.(check string)
    "full json report" full_report (Race.to_json vs)

let () =
  Alcotest.run "dmw_race"
    [ ( "locksets",
        [ Alcotest.test_case "each seeded defect trips its rule" `Quick
            test_seeded;
          Alcotest.test_case "guarded, atomic and interproc are silent" `Quick
            test_silent;
          Alcotest.test_case "confinement annotations" `Quick test_annotations ]
      );
      ( "integration",
        [ Alcotest.test_case "R4 handoff: race subsumes the linter" `Quick
            test_lint_handoff;
          Alcotest.test_case "human and json output" `Quick test_output_modes;
          Alcotest.test_case "unreadable cmt is a violation" `Quick
            test_unreadable_cmt;
          Alcotest.test_case "full report over every fixture" `Quick
            test_full_report ] ) ]
