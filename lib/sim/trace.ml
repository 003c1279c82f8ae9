type event = {
  time : float;
  src : int;
  dst : int;
  tag : string;
  bytes : int;
  broadcast : bool;
}

(* race: confined sim: traces are recorded by the single-threaded
   engine and read after the run finishes. *)
type t = {
  keep_events : bool;
  mutable events_rev : event list;
  mutable last_time : float;
}

let create ?(keep_events = true) () =
  { keep_events; events_rev = []; last_time = 0.0 }

let record t ev =
  if t.keep_events then t.events_rev <- ev :: t.events_rev;
  if ev.time > t.last_time then t.last_time <- ev.time

let events t = List.rev t.events_rev
let last_time t = t.last_time

module Metrics = Dmw_obs.Metrics

let count ~backend ~tag ~bytes =
  let labels = [ ("backend", backend); ("tag", tag) ] in
  Metrics.bump ~labels "dmw_messages_total" 1;
  Metrics.bump ~labels "dmw_bytes_total" bytes

let pp_summary fmt scope =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt "%-16s %10s %12s@," "tag" "messages" "bytes";
  List.iter2
    (fun (tag, m) (_, b) -> Format.fprintf fmt "%-16s %10d %12d@," tag m b)
    (Metrics.totals_by ~scope ~label:"tag" "dmw_messages_total")
    (Metrics.totals_by ~scope ~label:"tag" "dmw_bytes_total");
  Format.fprintf fmt "%-16s %10d %12d@]" "TOTAL"
    (Metrics.total ~scope "dmw_messages_total")
    (Metrics.total ~scope "dmw_bytes_total")

let pp_sequence ~max_events fmt t =
  let evs = events t in
  let n = List.length evs in
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i ev ->
      if i < max_events then
        Format.fprintf fmt "t=%8.4f  A%-3d %s A%-3d %-14s (%d B)@," ev.time
          ev.src
          (if ev.broadcast then "=>" else "->")
          ev.dst ev.tag ev.bytes)
    evs;
  if n > max_events then Format.fprintf fmt "... (%d more events)@," (n - max_events);
  Format.fprintf fmt "@]"
