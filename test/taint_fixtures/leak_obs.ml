(* Seeded leak: an agent's private bid flows into an observability
   gauge — Dmw_obs record/export calls are T-log sinks, so secret
   values cannot hide in metrics or span payloads. *)
type t = { bids : int array }

let leak (a : t) = Dmw_obs.Metrics.set "dmw_bid" (float_of_int a.bids.(0))

(* The same bid as the label of a counter looked up once: the
   increment exports the series, label included. *)
let leak_label (a : t) =
  Dmw_obs.Metrics.incr
    (Dmw_obs.Metrics.counter ~labels:[ ("bid", string_of_int a.bids.(0)) ]
       "dmw_bid_total")
