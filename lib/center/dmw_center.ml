module Engine = Dmw_sim.Engine
module Minwork = Dmw_mechanism.Minwork
module Schedule = Dmw_mechanism.Schedule

type center_behaviour =
  | Honest
  | Tamper of { agent : int; task : int; bid : int }
  | Partition of { victim : int }

type agent_behaviour =
  | Follows
  | Misreports_outcome
  | Silent

type msg =
  | Bid_vector of int array
  | Echo of int array array
  | Outcome_report of { assignment : int array; payments : float array }
  | Finalize of { assignment : int array; payments : float array }

type result = {
  schedule : Schedule.t option;
  payments : float array option;
  agreeing_reports : int;
  metrics : Dmw_obs.Metrics.scope;
}

let message_count ~n ~m =
  ignore m;
  4 * n

let vector_bytes m = 8 + (8 * m)
let matrix_bytes ~n ~m = 8 + (8 * n * m)

let compute_outcome bids =
  let o = Minwork.run (Array.map (Array.map float_of_int) bids) in
  (Schedule.assignment o.Minwork.schedule, o.Minwork.payments)

let run ?(center = Honest) ?(agents = fun _ -> Follows) ?(seed = 11) ~n ~m ~c
    bids =
  if n < 2 then invalid_arg "Dmw_center.run: need at least two agents";
  if Array.length bids <> n || Array.exists (fun r -> Array.length r <> m) bids
  then invalid_arg "Dmw_center.run: bad bid matrix";
  (* Node n is the center. *)
  let eng = Engine.create ~seed ~nodes:(n + 1) ~keep_events:false () in
  let center_id = n in
  let received_bids : int array option array = Array.make n None in
  let reports : (int array * float array) option array = Array.make n None in
  let final : (int array * float array) option ref = ref None in
  let agreeing = ref 0 in
  (* Every transmission is counted, in the run's scope. *)
  let send eng ~src ~dst ~tag ~bytes msg =
    Dmw_sim.Trace.count ~backend:"center" ~tag ~bytes;
    Engine.send eng ~src ~dst ~tag ~bytes msg
  in
  (* The center's view. *)
  let tampered_matrix matrix =
    match center with
    | Honest -> matrix
    | Tamper { agent; task; bid } ->
        let m' = Array.map Array.copy matrix in
        m'.(agent).(task) <- bid;
        m'
    | Partition _ -> matrix
  in
  let partition_matrix_for dst matrix =
    match center with
    | Partition { victim } when dst = victim ->
        let m' = Array.map Array.copy matrix in
        (* Swap two agents' rows in the victim's view. *)
        let a = m'.(0) in
        m'.(0) <- m'.((0 + 1) mod n);
        m'.((0 + 1) mod n) <- a;
        m'
    | _ -> matrix
  in
  let maybe_finalize eng =
    if !final = None then begin
      let counts = Hashtbl.create n in
      Array.iter
        (function
          | None -> ()
          | Some (a, p) ->
              let key = (Array.to_list a, Array.to_list p) in
              Hashtbl.replace counts key
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts key)))
        reports;
      (* Sorted: with c >= n/2 colluders two distinct outcomes can both
         reach the n - c quorum, and iterating [counts] in Hashtbl
         bucket order would let hash state — not (seed, params) — pick
         which one gets finalized. The sort makes the tie-break the
         lexicographically least outcome, deterministically. *)
      Hashtbl.fold (fun key count acc -> (key, count) :: acc) counts []
      |> List.sort compare
      |> List.iter (fun ((a, p), count) ->
             if count >= n - c && !final = None then begin
               agreeing := count;
               final := Some (Array.of_list a, Array.of_list p);
               let assignment = Array.of_list a
               and payments = Array.of_list p in
               for dst = 0 to n - 1 do
                 send eng ~src:center_id ~dst ~tag:"finalize"
                   ~bytes:(vector_bytes (m + n))
                   (Finalize { assignment; payments })
               done
             end)
    end
  in
  Engine.on_message eng ~node:center_id (fun eng d ->
      match d.Engine.payload with
      | Bid_vector v ->
          if Option.is_none received_bids.(d.Engine.src) then begin
            received_bids.(d.Engine.src) <- Some v;
            if Array.for_all Option.is_some received_bids then begin
              (* lint: allow partial: guarded by the for_all just above *)
              let matrix = tampered_matrix (Array.map Option.get received_bids) in
              for dst = 0 to n - 1 do
                send eng ~src:center_id ~dst ~tag:"echo"
                  ~bytes:(matrix_bytes ~n ~m)
                  (Echo (partition_matrix_for dst matrix))
              done
            end
          end
      | Outcome_report { assignment; payments } ->
          if reports.(d.Engine.src) = None then begin
            reports.(d.Engine.src) <- Some (assignment, payments);
            match !final with
            | Some (fa, fp) ->
                (* Already finalized: late matching reports still count
                   toward the published agreement tally. *)
                if fa = assignment && fp = payments then incr agreeing
            | None ->
                let have =
                  Array.fold_left
                    (fun k r -> if Option.is_some r then k + 1 else k)
                    0 reports
                in
                if have >= n - c then maybe_finalize eng
          end
      | Echo _ | Finalize _ -> ());
  for i = 0 to n - 1 do
    Engine.on_message eng ~node:i (fun eng d ->
        match d.Engine.payload with
        | Echo matrix -> begin
            match agents i with
            | Silent -> ()
            | behaviour ->
                let assignment, payments = compute_outcome matrix in
                let assignment, payments =
                  if behaviour = Misreports_outcome then begin
                    (* Claim every task (and a payday) for itself. *)
                    (Array.map (fun _ -> i) assignment,
                     Array.mapi (fun k _ -> if k = i then 1e6 else 0.0) payments)
                  end
                  else (assignment, payments)
                in
                send eng ~src:i ~dst:center_id ~tag:"outcome_report"
                  ~bytes:(vector_bytes (m + n))
                  (Outcome_report { assignment; payments })
          end
        | Bid_vector _ | Outcome_report _ | Finalize _ -> ())
  done;
  Engine.at eng ~time:0.0 (fun () ->
      for i = 0 to n - 1 do
        send eng ~src:i ~dst:center_id ~tag:"bid_vector"
          ~bytes:(vector_bytes m) (Bid_vector bids.(i))
      done);
  let (), metrics = Dmw_obs.Metrics.scoped (fun () -> Engine.run eng) in
  let schedule, payments =
    match !final with
    | Some (assignment, payments) ->
        (Some (Schedule.create ~agents:n ~assignment), Some payments)
    | None -> (None, None)
  in
  { schedule; payments; agreeing_reports = !agreeing; metrics }
