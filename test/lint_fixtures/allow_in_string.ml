(* Seeded fixture: escape-hatch markers that sit only inside string
   literals. They are data, not comments, so they excuse nothing and
   are no annotations at all: the R6 below must fire, and no pass may
   see an allowance (hence no stale or unknown-keyword finding). *)

let hints =
  [ "taint: declassify spectre: quoted, not an annotation";
    "det: lucky: quoted, not an annotation";
    "race: confined nowhere: quoted, not an annotation" ]

let hint = "lint: allow partial: quoted, not an annotation"
let first = Option.get (Some 1)
let _ = (hints, hint, first)
