(* The secret-flow policy for the shared flow engine (flow.ml). See
   taint.mli for the lattice (sources / sinks / declassifiers) and its
   mapping to the paper's privacy argument; DESIGN.md "Static privacy
   boundary" for the rationale. *)

module Fs = Analysis_kit.Fs

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

let sanctioned_keywords = [ "pedersen"; "share"; "exponent"; "disclosure" ]

let describe cls =
  match cls with
  | "prng" -> "a raw PRNG draw"
  | "share" -> "a share evaluation field (e_at/f_at/g_at/h_at)"
  | "dealer" -> "secret dealer state (polynomial coefficients or tau)"
  | "bid" -> "an agent bid"
  | c -> c

(* ------------------------------------------------------------------ *)
(* Scoping                                                             *)
(* ------------------------------------------------------------------ *)

type scope = { prng : bool; share_fields : bool; bid_fields : bool }

(* PRNG draws are secret where they seed polynomial coefficients and
   blindings; elsewhere (workloads, latencies, the public pseudonyms
   in params.ml) the same draws are public by design. Share fields
   are secret everywhere but the wire codec, which serializes a
   bundle already addressed to its recipient. *)
let scope_for p =
  { prng =
      Fs.has_prefix "lib/crypto/" p
      || Fs.has_prefix "lib/poly/" p
      || p = "lib/core/agent.ml";
    share_fields = p <> "lib/core/codec.ml";
    bid_fields = Fs.has_prefix "lib/core/" p }

(* ------------------------------------------------------------------ *)
(* Policy tables                                                       *)
(* ------------------------------------------------------------------ *)

let prng_draws =
  [ "next_int64"; "int"; "int_in_range"; "bool"; "float"; "bits"; "below";
    "in_range" ]

let source_fn scope (m, v) =
  scope.prng
  && ((m = "Prng" && List.mem v prng_draws)
     || (m = "Group" && v = "random_exponent"))

let declassifier (m, v) =
  match (m, v) with
  | "Pedersen", ("commit" | "blind_only") -> true
  | "Bid_commitments", "share_for" -> true
  | "Exponent_resolution", _ -> true
  | "Degree_resolution", _ -> true
  | ( "Resolution",
      ( "first_price" | "second_price" | "winner" | "aggregate"
      | "verify_lambda_psi" | "verify_lambda_psi_excl" | "verify_disclosure"
      | "verify_disclosure_hardened" ) ) ->
      true
  (* The privacy experiments' readback: degree resolution over pooled
     shares returns a resolved bid/degree — the measured quantity, not
     the shares themselves. *)
  | "Privacy", ("recover_bid" | "recover_bid_f" | "attack_dealer" | "attack_dealer_f")
    ->
      true
  | _ -> false

(* Predicates and size functions return public scalars. *)
let sanitizer (_, v) =
  List.mem v
    [ "equal"; "compare"; "length"; "byte_size"; "encoded_size";
      "element_bytes"; "exponent_bytes"; "num_bits"; "sign"; "tag"; "mem";
      "verify"; "not"; "ignore"; "for_all"; "exists"; "="; "<>"; "<"; ">";
      "<="; ">="; "=="; "!="; "&&"; "||" ]
  || Fs.has_prefix "verify_" v
  || Fs.has_prefix "check_" v
  || Fs.has_prefix "is_" v

let sink_fn (m, v) =
  match (m, v) with
  | "Frame", "write" -> Some ("T-wire", "Frame.write")
  | "Engine", ("send" | "publish") -> Some ("T-wire", "Engine." ^ v)
  | ("Fabric" | "Endpoint"), ("send" | "publish" | "post" | "write") ->
      Some ("T-wire", m ^ "." ^ v)
  | "Trace", "record" -> Some ("T-trace", "Trace.record")
  | "Audit", "log" -> Some ("T-trace", "Audit.log")
  (* Observability is an export surface: metric values, labels and
     span attributes end up in run reports, so secrets must be
     declassified before they are recorded. *)
  | "Metrics", ("bump" | "incr" | "set" | "observe") ->
      Some ("T-log", "Dmw_obs.Metrics." ^ v)
  | "Span", ("start" | "emit") -> Some ("T-log", "Dmw_obs.Span." ^ v)
  | "Export", ("json_lines" | "prometheus" | "write_file" | "dump") ->
      Some ("T-log", "Dmw_obs.Export." ^ v)
  | "Printf", ("printf" | "eprintf" | "fprintf" | "ifprintf") ->
      Some ("T-log", "Printf." ^ v)
  | "Format", ("printf" | "eprintf" | "fprintf") ->
      Some ("T-log", "Format." ^ v)
  | ( "Stdlib",
      ( "print_string" | "print_endline" | "print_int" | "print_float"
      | "prerr_string" | "prerr_endline" ) ) ->
      Some ("T-log", v)
  | _ -> None

let apply scope k : Flow.verdict option =
  if sanitizer k || declassifier k then Some Clean
  else if source_fn scope k then Some (Source "prng")
  else Option.map (fun (rule, sink) -> Flow.Sink (rule, sink)) (sink_fn k)

let field_policy scope ~unit_name (lbl : Types.label_description) : Flow.field =
  let tname = Analysis_kit.Cmt.type_last2 ~unit_name lbl.lbl_res in
  let type_named n = match tname with Some (_, t) -> t = n | None -> false in
  match lbl.lbl_name with
  | ("e_at" | "f_at" | "g_at" | "h_at") when scope.share_fields && type_named "t"
    ->
      Adds "share"
  | ("e" | "f" | "g" | "h" | "tau") when type_named "dealer" -> Adds "dealer"
  | ("public" | "sigma") when type_named "dealer" -> Cleans
  | "bids" when scope.bid_fields && type_named "t" -> Adds "bid"
  | _ -> Keeps

let policy : scope Flow.policy =
  { annotations =
      { marker = "taint: declassify ";
        keywords = sanctioned_keywords;
        unknown =
          ( "T-annot",
            Printf.sprintf
              "unknown declassify keyword '%s': the annotation must name the \
               sanctioned declassifier family — one of pedersen, share, \
               exponent, disclosure" );
        stale =
          ( "stale-declassify",
            Printf.sprintf
              "(* taint: declassify %s *) suppresses nothing here: the \
               crossing it excused is gone — delete the annotation" ) };
    hint =
      "route it through a sanctioned declassifier (Pedersen.commit, \
       Bid_commitments.share_for, Exponent_resolution/Degree_resolution) or \
       annotate the crossing: (* taint: declassify \
       <pedersen|share|exponent|disclosure>: reason *)";
    describe;
    scope_for;
    apply;
    field = field_policy;
    msg_rule = "T-msg";
    record_sink =
      (function
      | "Transcript", "t" -> Some ("T-trace", "a Transcript.t record")
      | _ -> None);
    admitted = (fun _ -> []);
    use_site = (fun _ -> None) }

let analyze = Flow.analyze policy
let human = Analysis_kit.Report.human
let to_json = Analysis_kit.Report.to_json
