(* The determinism policy for the shared flow engine (flow.ml). See
   det.mli for the source/sink model and its mapping to the replay
   guarantees; DESIGN.md "Determinism boundary" for the rationale. *)

type violation = Analysis_kit.Report.violation = {
  file : string;
  line : int;
  col : int;
  rule : string;
  message : string;
}

type input = Analysis_kit.Cmt.input = {
  cmt_path : string;
  rule_path : string option;
  source : string option;
}

let sanctioned_keywords = [ "wallclock"; "timeout"; "obs-only"; "sorted" ]

let describe = function
  | "wallclock" -> "a wall-clock reading"
  | "hashorder" -> "a Hashtbl-iteration-order dependent value"
  | "physeq" -> "a physical-equality/address-derived value"
  | "env" -> "an environment read"
  | c -> c

let det_hint =
  "derive the value from (seed, params), normalize the iteration with \
   a sort, or annotate the sanctioned crossing: (* det: \
   <wallclock|timeout|obs-only|sorted>: reason *)"

(* ------------------------------------------------------------------ *)
(* Policy tables                                                       *)
(* ------------------------------------------------------------------ *)

let source_fn (m, v) =
  match (m, v) with
  | "Unix", ("gettimeofday" | "time" | "gmtime" | "localtime" | "mktime") ->
      Some "wallclock"
  | "Sys", "time" -> Some "wallclock"
  | "Sys", ("getenv" | "getenv_opt") -> Some "env"
  | "Unix", ("getenv" | "environment" | "getpid") -> Some "env"
  | "Obj", ("repr" | "magic" | "tag") -> Some "physeq"
  | "Stdlib", ("==" | "!=") -> Some "physeq"
  | "Hashtbl", "hash_param" -> Some "physeq"
  | _ -> None

(* Unordered-iteration entry points: the closure sees elements in hash
   order, and a folded result inherits that order. [Hashtbl.find] and
   friends are keyed lookups — deterministic — and stay clean. *)
let hashtbl_iteration (m, v) =
  m = "Hashtbl"
  && List.mem v [ "fold"; "iter"; "to_seq"; "to_seq_keys"; "to_seq_values" ]

(* The one sanctioned normalizer: a sort forgets the order the
   elements arrived in, and nothing else about them (sorted wall-clock
   readings are still wall-clock readings). *)
let sort_fn (m, v) =
  (m = "List" || m = "Array")
  && List.mem v [ "sort"; "sort_uniq"; "stable_sort"; "fast_sort" ]

(* Predicates and size functions return values that are functions of
   their (deterministic) inputs' contents, not of arrival order or
   clocks. Physical equality is deliberately NOT here. *)
let sanitizer (_, v) =
  List.mem v
    [ "equal"; "compare"; "length"; "mem"; "is_empty"; "hash"; "not";
      "ignore"; "="; "<>"; "<"; ">"; "<="; ">="; "&&"; "||" ]
  || Analysis_kit.Fs.has_prefix "is_" v

(* Determinism-critical sinks. [D-obs] is a distinct regime: the
   observability surface exists to record wall times, so [wallclock]
   crosses it silently, but iteration order, randomness and the rest
   still corrupt reports and replay diffs. [Fabric.broadcast_epoch] is
   deliberately not a sink — it carries only the epoch barrier, and the
   epoch counter is plain counting. *)
let sink_fn (m, v) =
  match (m, v) with
  | "Schedule", "create" -> Some ("D-consensus", "Schedule.create")
  | "Frame", "write" -> Some ("D-wire", "Frame.write")
  | "Codec", "encode" -> Some ("D-wire", "Codec.encode")
  | "Engine", ("send" | "publish") -> Some ("D-wire", "Engine." ^ v)
  | ("Fabric" | "Endpoint"), ("send" | "publish" | "post") ->
      Some ("D-wire", m ^ "." ^ v)
  | "Audit", "log" -> Some ("D-audit", "Audit.log")
  | "Dmw_wal", "append" -> Some ("D-wal", "Dmw_wal.append")
  | "Prng", "create" -> Some ("D-seed", "the Prng.create seed")
  | "Fault", "instantiate" -> Some ("D-seed", "the Fault.instantiate seed")
  | "Trace", "record" -> Some ("D-obs", "Trace.record")
  | "Metrics", ("bump" | "incr" | "set" | "observe") ->
      Some ("D-obs", "Dmw_obs.Metrics." ^ v)
  | "Span", ("start" | "emit") -> Some ("D-obs", "Dmw_obs.Span." ^ v)
  | "Export", ("json_lines" | "prometheus" | "write_file" | "dump") ->
      Some ("D-obs", "Dmw_obs.Export." ^ v)
  | _ -> None

let apply () k : Flow.verdict option =
  if sort_fn k then Some (Strips "hashorder")
  else if sanitizer k then Some Clean
  else
    match (source_fn k, sink_fn k) with
    | Some cls, _ -> Some (Source cls)
    | None, Some (rule, sink) -> Some (Sink (rule, sink))
    | None, None ->
        if hashtbl_iteration k then Some (Iterates "hashorder") else None

(* Record types whose construction is itself a sink: the unified
   result record is the consensus signature's carrier, and the backend
   info record feeds it. *)
let record_sink = function
  | "Dmw_exec", (("result" | "info") as t) ->
      Some ("D-consensus", "the Dmw_exec." ^ t ^ " record")
  | _ -> None

(* Unseeded randomness is a use-site defect, not a flow: like the
   linter's R3, the draw itself is already unreproducible wherever its
   value lands — which is what lets D-random subsume R3 under lib/.
   The global [Stdlib.Random] family (including [Random.State]) in any
   spelling is the same surface the linter's syntactic R3 patrols; the
   repo's own seeded generator is [Prng] and never matches. *)
let use_site path =
  if List.mem "Random" (Analysis_kit.Cmt.comps_of_name (Path.name path)) then
    Some
      ( "D-random",
        "call into the ambient Stdlib.Random state — draw from a \
         Dmw_bigint.Prng.t created from the run seed instead, or " ^ det_hint )
  else None

let policy : unit Flow.policy =
  { annotations =
      { marker = "det: ";
        keywords = sanctioned_keywords;
        unknown =
          ( "D-annot",
            fun kw ->
              Printf.sprintf
                "unknown det keyword '%s': the annotation must name the \
                 sanctioned regime — one of %s"
                kw
                (String.concat ", " sanctioned_keywords) );
        stale =
          ( "stale-det",
            Printf.sprintf
              "(* det: %s *) suppresses nothing here: the crossing it \
               excused is gone — delete the annotation" ) };
    hint = det_hint;
    describe;
    scope_for = (fun _ -> ());
    apply;
    field = (fun () ~unit_name:_ _ -> Keeps);
    msg_rule = "D-wire";
    record_sink;
    (* The D-obs regime admits wall times: recording them is what the
       observability layer is for. *)
    admitted = (function "D-obs" -> [ "wallclock" ] | _ -> []);
    use_site }

let analyze = Flow.analyze policy
let human = Analysis_kit.Report.human
let to_json = Analysis_kit.Report.to_json
