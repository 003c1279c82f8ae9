(* Seeded determinism defect: a label picked in Hashtbl iteration
   order names the counter a run increments, so two replays of one
   run can report different series. *)

let count_first (seen : (string, unit) Hashtbl.t) =
  let first = Hashtbl.fold (fun k () _ -> k) seen "" in
  Dmw_obs.Metrics.incr
    (Dmw_obs.Metrics.counter ~labels:[ ("first", first) ] "fixture_total")
