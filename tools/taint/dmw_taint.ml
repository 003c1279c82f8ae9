(* CLI driver: scan the given directories (default: the four project
   source roots, as laid out under _build/default) for .cmt files and
   report taint violations; exit 1 if any. Runs from the build
   context so that both the .cmt artifacts and the source files (for
   the declassify annotations) are visible. *)

let () =
  Analysis_kit.Cli.main ~tool:"dmw_taint" ~ext:".cmt"
    ~default_roots:[ "lib"; "bin"; "bench"; "examples" ]
    ~analyze:(fun files -> Taint.analyze (Analysis_kit.Cmt.inputs files))
    ()
