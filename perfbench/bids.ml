(* Bid source shared by every workload. Bids are machine-correlated
   processing times discretized onto the protocol's levels [1 .. w_max]
   on a log scale. The discretization spans a block of [block] tasks,
   so a task's lowest bid (its first price) lands on any level, not
   only on 1 as it would if each task were discretized alone. *)

module Workload = Dmw_workload.Workload

let block = 8

type t = {
  rng : Dmw_bigint.Prng.t;
  n : int;
  w_max : int;
  pending : int array Queue.t;  (* bid columns, one per task *)
}

let create ~seed ~n ~w_max =
  { rng = Dmw_bigint.Prng.create ~seed; n; w_max; pending = Queue.create () }

(* One task: [bids.(i)] is agent [i]'s level. *)
let next_task t =
  if Queue.is_empty t.pending then begin
    let inst = Workload.machine_correlated t.rng ~n:t.n ~m:block in
    let levels = Workload.discretize_log inst ~levels:t.w_max in
    for j = 0 to block - 1 do
      Queue.push (Array.init t.n (fun i -> levels.(i).(j))) t.pending
    done
  end;
  Queue.pop t.pending

(* [m] tasks: [bids.(i).(j)] is agent [i]'s level for task [j]. *)
let next_run t ~m =
  let cols = Array.init m (fun _ -> next_task t) in
  Array.init t.n (fun i -> Array.map (fun col -> col.(i)) cols)
