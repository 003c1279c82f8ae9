type labels = (string * string) list

(* The root's switch: the one branch a record call pays outside any
   scope while observability is off. *)
let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let exporting () = Atomic.get enabled_flag

(* Replace [cell]'s value by [f] of it, retrying on a racing write. *)
let rec update cell f =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (f cur)) then update cell f

module Histogram = struct
  (* Byte-size oriented defaults: protocol messages run from ~20 B
     (lambda_psi) to a few KB (hardened disclosures in big groups). *)
  (* race: confined readonly: a constant; every histogram copies it. *)
  let default_edges = [| 16.; 64.; 256.; 1024.; 4096.; 16384. |]

  (* race: confined owner: a snapshot is never written once published;
     [observe] fills a fresh copy. *)
  type snapshot = {
    edges : float array;
    underflow : int;
    counts : int array;
    overflow : int;
    sum : float;
    count : int;
  }

  let check_edges edges =
    let k = Array.length edges in
    if k < 1 then invalid_arg "Histogram: need at least one edge";
    for i = 0 to k - 2 do
      if not (edges.(i) < edges.(i + 1)) then
        invalid_arg "Histogram: edges must be strictly increasing"
    done

  let empty ~edges =
    check_edges edges;
    { edges = Array.copy edges;
      underflow = 0;
      counts = Array.make (Array.length edges - 1) 0;
      overflow = 0;
      sum = 0.0;
      count = 0 }

  let merge a b =
    if a.edges <> b.edges then
      invalid_arg "Histogram.merge: mismatched edges";
    { edges = a.edges;
      underflow = a.underflow + b.underflow;
      counts = Array.map2 ( + ) a.counts b.counts;
      overflow = a.overflow + b.overflow;
      sum = a.sum +. b.sum;
      count = a.count + b.count }

  let observe h v =
    let k = Array.length h.edges in
    let h = { h with counts = Array.copy h.counts; sum = h.sum +. v;
              count = h.count + 1 } in
    if v < h.edges.(0) then { h with underflow = h.underflow + 1 }
    else if v >= h.edges.(k - 1) then { h with overflow = h.overflow + 1 }
    else begin
      (* Linear scan: edge arrays are single digits long. *)
      let i = ref 0 in
      while v >= h.edges.(!i + 1) do incr i done;
      h.counts.(!i) <- h.counts.(!i) + 1;
      h
    end
end

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

(* A live histogram is its latest snapshot, replaced atomically. *)
type value =
  | C of int Atomic.t
  | G of float Atomic.t
  | H of Histogram.snapshot Atomic.t
type key = string * labels

(* Compared by physical identity in the scopes' caches. *)
type counter = { key : key }

(* The table is only touched under the scope's own lock. *)
type scope = {
  parent : scope option;
  table : (key, value) Hashtbl.t;
  lock : Mutex.t;
  hot : (counter * int Atomic.t) list Atomic.t;
  closed : bool Atomic.t;
}

let make parent =
  { parent; table = Hashtbl.create 16; lock = Mutex.create ();
    hot = Atomic.make []; closed = Atomic.make false }

let root = make None

(* The recording target: the innermost open scope. *)
let current = Atomic.make root

let with_lock s f =
  Mutex.lock s.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.lock) f

let key name labels =
  (name, List.sort (fun (a, _) (b, _) -> String.compare a b) labels)

let reset () =
  with_lock root (fun () -> Hashtbl.reset root.table);
  Atomic.set root.hot []

let cell s key mk =
  with_lock s (fun () ->
      match Hashtbl.find_opt s.table key with
      | Some v -> v
      | None ->
          let v = mk () in
          Hashtbl.add s.table key v;
          v)

let as_c = function C c -> Some c | G _ | H _ -> None
let as_g = function G g -> Some g | C _ | H _ -> None
let as_h = function H h -> Some h | C _ | G _ -> None

(* The cell of a series, registered by [mk] on first use. *)
let typed s key mk kind =
  match kind (cell s key mk) with
  | Some c -> c
  | None ->
      invalid_arg
        ("Metrics: " ^ fst key ^ " already registered with another type")

let counter_cell s key = typed s key (fun () -> C (Atomic.make 0)) as_c
let gauge_cell s key = typed s key (fun () -> G (Atomic.make 0.0)) as_g

let hist_cell s key ~edges =
  typed s key (fun () -> H (Atomic.make (Histogram.empty ~edges))) as_h

let entries s =
  with_lock s (fun () -> Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.table [])

(* Closed scopes forward to their parent; the root never closes. *)
let rec live s =
  match s.parent with
  | Some p when Atomic.get s.closed -> live p
  | Some _ | None -> s

let records s = s != root || Atomic.get enabled_flag

let scoped f =
  let outer = live (Atomic.get current) in
  let s = make (Some outer) in
  Atomic.set current s;
  let close () =
    Atomic.set s.closed true;
    let dst = live outer in
    ignore (Atomic.compare_and_set current s dst : bool);
    if records dst then
      List.iter
        (fun (key, v) ->
          match v with
          | C c ->
              ignore (Atomic.fetch_and_add (counter_cell dst key) (Atomic.get c))
          | G g -> Atomic.set (gauge_cell dst key) (Atomic.get g)
          | H h ->
              let h = Atomic.get h in
              update (hist_cell dst key ~edges:h.edges) (Histogram.merge h))
        (entries s)
  in
  (Fun.protect ~finally:close f, s)

(* ------------------------------------------------------------------ *)
(* Recording                                                           *)
(* ------------------------------------------------------------------ *)

let record labels name f =
  let s = live (Atomic.get current) in
  if records s then f s (key name labels)

let bump ?(labels = []) name n =
  record labels name (fun s key ->
      if n < 0 then invalid_arg "Metrics.bump: counters are monotonic";
      ignore (Atomic.fetch_and_add (counter_cell s key) n))

let set ?(labels = []) name v =
  record labels name (fun s key -> Atomic.set (gauge_cell s key) v)

let observe ?(labels = []) ?(edges = Histogram.default_edges) name v =
  record labels name (fun s key ->
      update (hist_cell s key ~edges) (fun h -> Histogram.observe h v))

let counter ?(labels = []) name = { key = key name labels }

(* [c]'s cell in [s], cached per scope; no allocation on a hit. *)
let rec hot_cell s c = function
  | (c', cell) :: _ when c' == c -> cell
  | _ :: rest -> hot_cell s c rest
  | [] ->
      (* A racing insert may drop another handle's entry; its next
         increment just looks the cell up again. *)
      let cell = counter_cell s c.key in
      Atomic.set s.hot ((c, cell) :: Atomic.get s.hot);
      cell

let incr c =
  let s = live (Atomic.get current) in
  if records s then Atomic.incr (hot_cell s c (Atomic.get s.hot))

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

let lookup scope name labels =
  with_lock scope (fun () -> Hashtbl.find_opt scope.table (key name labels))

let counter_value ?(scope = root) ?(labels = []) name =
  Option.fold ~none:0 ~some:Atomic.get
    (Option.bind (lookup scope name labels) as_c)

let gauge_value ?(scope = root) ?(labels = []) name =
  Option.map Atomic.get (Option.bind (lookup scope name labels) as_g)

let histogram_snapshot ?(scope = root) ?(labels = []) name =
  Option.map Atomic.get (Option.bind (lookup scope name labels) as_h)

type sample =
  | Counter of { name : string; labels : labels; value : int }
  | Gauge of { name : string; labels : labels; value : float }
  | Hist of { name : string; labels : labels; snapshot : Histogram.snapshot }

let samples ?(scope = root) () =
  entries scope
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map (fun ((name, labels), v) ->
         match v with
         | C c -> Counter { name; labels; value = Atomic.get c }
         | G g -> Gauge { name; labels; value = Atomic.get g }
         | H h -> Hist { name; labels; snapshot = Atomic.get h })

(* A counter summed per [group] of its label sets. *)
let sums ?scope ~group name =
  List.fold_left
    (fun acc (((n, labels), v) : key * value) ->
      match (v, group labels) with
      | C c, Some g when String.equal n name ->
          (g, Atomic.get c + Option.value ~default:0 (List.assoc_opt g acc))
          :: List.remove_assoc g acc
      | _ -> acc)
    [] (entries (Option.value scope ~default:root))
  |> List.sort compare

let total ?scope name =
  match sums ?scope ~group:(fun _ -> Some "") name with
  | [ (_, v) ] -> v
  | _ -> 0

let totals_by ?scope ~label name =
  sums ?scope ~group:(List.assoc_opt label) name
