(* CLI driver: scan the given directories (default: lib, the only
   root whose state must be domain-ready) for .cmt files and report
   shared-state discipline violations; exit 1 if any. Runs from the
   build context so that both the .cmt artifacts and the source files
   (for the confinement annotations) are visible. *)

let () =
  Analysis_kit.Cli.main ~tool:"dmw_race" ~ext:".cmt"
    ~default_roots:[ "lib" ]
    ~analyze:(fun files -> Race.analyze (Analysis_kit.Cmt.inputs files))
    ()
