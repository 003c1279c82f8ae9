(* dmw_det — determinism-boundary analyzer CLI.

   Usage: dmw_det [--json] [path ...]
   Paths may be .cmt files or directories searched recursively
   (defaults to lib/ under the build root). Exit 0 = clean, 1 =
   violations, 2 = missing path. *)

let () =
  Analysis_kit.Cli.main ~tool:"dmw_det" ~ext:".cmt" ~default_roots:[ "lib" ]
    ~analyze:(fun files -> Det.analyze (Analysis_kit.Cmt.inputs files))
    ()
