type id = int

let null = 0

type completed = {
  id : int;
  parent : int option;
  name : string;
  attrs : (string * string) list;
  t_start : float;
  t_stop : float;
}

type open_span = {
  o_parent : int option;
  o_name : string;
  o_attrs : (string * string) list;
  o_start : float;
}

let next_id = Atomic.make 1
let lock = Mutex.create ()
let live : (int, open_span) Hashtbl.t = Hashtbl.create 16
let finished : completed list ref = ref []

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let parent_of = function
  | Some p when p <> null -> Some p
  | Some _ | None -> None

let start ?parent ?(attrs = []) ~name ~now () =
  if not (Metrics.exporting ()) then null
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    with_lock (fun () ->
        Hashtbl.replace live id
          { o_parent = parent_of parent; o_name = name; o_attrs = attrs;
            o_start = now });
    id
  end

let finish id ~now =
  if id <> null then
    with_lock (fun () ->
        match Hashtbl.find_opt live id with
        | None -> ()
        | Some o ->
            Hashtbl.remove live id;
            finished :=
              { id; parent = o.o_parent; name = o.o_name; attrs = o.o_attrs;
                t_start = o.o_start; t_stop = now }
              :: !finished)

let emit ?parent ?(attrs = []) ~name ~t_start ~t_stop () =
  if not (Metrics.exporting ()) then null
  else begin
    let id = Atomic.fetch_and_add next_id 1 in
    with_lock (fun () ->
        finished :=
          { id; parent = parent_of parent; name; attrs; t_start; t_stop }
          :: !finished);
    id
  end

let completed () =
  with_lock (fun () ->
      List.sort
        (fun a b ->
          match Float.compare a.t_start b.t_start with
          | 0 -> Int.compare a.id b.id
          | c -> c)
        !finished)

let reset () =
  with_lock (fun () ->
      Hashtbl.reset live;
      finished := [])

let overlap a b =
  Float.max 0.0
    (Float.min a.t_stop b.t_stop -. Float.max a.t_start b.t_start)

let max_concurrency spans =
  (* Sweep the interval endpoints: +1 at each start, -1 at each stop.
     Stops sort before starts at equal times, so back-to-back spans
     (a.t_stop = b.t_start) do not count as concurrent. *)
  let events =
    List.concat_map (fun s -> [ (s.t_start, 1); (s.t_stop, -1) ]) spans
    |> List.sort (fun (ta, da) (tb, db) ->
           match Float.compare ta tb with
           | 0 -> Int.compare da db
           | c -> c)
  in
  let _, peak =
    List.fold_left
      (fun (depth, peak) (_, d) ->
        let depth = depth + d in
        (depth, max peak depth))
      (0, 0) events
  in
  peak
