(* Shared machinery for the four static-analysis passes: reporting,
   the escape-hatch scanner with its hygiene findings, file walking, the
   CLI driver and the .cmt layer of the three Typedtree passes. See
   analysis_kit.mli. *)

module Report = struct
  type violation = {
    file : string;
    line : int;
    col : int;
    rule : string;
    message : string;
  }

  let by_position a b =
    match compare a.file b.file with
    | 0 -> (
        match compare a.line b.line with 0 -> compare a.col b.col | c -> c)
    | c -> c

  let human violations =
    String.concat ""
      (List.map
         (fun v ->
           Printf.sprintf "%s:%d:%d: [%s] %s\n" v.file v.line v.col v.rule
             v.message)
         violations)

  let json_escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
            Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  let to_json violations =
    let obj v =
      Printf.sprintf
        "{\"file\":\"%s\",\"line\":%d,\"col\":%d,\"rule\":\"%s\",\"message\":\"%s\"}"
        (json_escape v.file) v.line v.col (json_escape v.rule)
        (json_escape v.message)
    in
    "[" ^ String.concat ",\n " (List.map obj violations) ^ "]\n"
end

module Fs = struct
  let normalize path =
    let path = String.map (fun c -> if c = '\\' then '/' else c) path in
    if String.length path >= 2 && String.sub path 0 2 = "./" then
      String.sub path 2 (String.length path - 2)
    else path

  let has_prefix prefix s =
    String.length s >= String.length prefix
    && String.sub s 0 (String.length prefix) = prefix

  let find_substring ?(start = 0) haystack needle =
    let nh = String.length haystack and nn = String.length needle in
    let rec go i =
      if i + nn > nh then None
      else if String.sub haystack i nn = needle then Some i
      else go (i + 1)
    in
    go start

  let read_file path =
    let ic = open_in_bin path in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
    really_input_string ic (in_channel_length ic)

  let rec collect ~ext path =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.sort String.compare
      |> List.concat_map (fun entry ->
             collect ~ext (Filename.concat path entry))
    else if Filename.check_suffix path ext then [ path ]
    else []
end

module Allow = struct
  type t = { line : int; keyword : string; mutable used : bool }

  let keyword_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '-'

  (* The source's comments, docstrings included, as the compiler's
     lexer sees them: a marker inside a string literal is not one. *)
  let comments src =
    Lexer.init ();
    let lexbuf = Lexing.from_string src in
    let rec drain () =
      match Lexer.token lexbuf with Parser.EOF -> () | _ -> drain ()
    in
    (try drain () with Lexer.Error _ -> ());
    Lexer.comments ()

  (* The allowance is anchored to the line where the comment closes
     (and covers the line below it), so a multi-line justification
     still attaches to the code it precedes. *)
  let scan ~marker src =
    List.concat_map
      (fun (text, loc) ->
        let line = loc.Location.loc_end.Lexing.pos_lnum in
        let rec go pos =
          match Fs.find_substring ~start:pos text marker with
          | None -> []
          | Some j ->
              let start = j + String.length marker in
              let stop = ref start in
              while !stop < String.length text && keyword_char text.[!stop] do
                incr stop
              done;
              let keyword = String.sub text start (!stop - start) in
              { line; keyword; used = false } :: go !stop
        in
        go 0)
      (comments src)

  let claim allows ~keyword_ok ~line =
    let hit = ref false in
    List.iter
      (fun a ->
        if keyword_ok a.keyword && (a.line = line || a.line = line - 1) then begin
          a.used <- true;
          hit := true
        end)
      allows;
    !hit

  type spec = {
    marker : string;
    keywords : string list;
    unknown : string * (string -> string);
    stale : string * (string -> string);
  }

  let hygiene spec ~file allows =
    List.filter_map
      (fun a ->
        let finding (rule, message) =
          Some
            { Report.file;
              line = a.line;
              col = 0;
              rule;
              message = message a.keyword }
        in
        if not (List.mem a.keyword spec.keywords) then finding spec.unknown
        else if not a.used then finding spec.stale
        else None)
      allows
end

module Cli = struct
  let main ~tool ~ext ~default_roots ~analyze () =
    let json = ref false in
    let paths = ref [] in
    let usage =
      Printf.sprintf "%s [--json] [path ...]\nDefault paths: %s" tool
        (String.concat " " default_roots)
    in
    Arg.parse
      [ ("--json", Arg.Set json, " machine-readable JSON output") ]
      (fun p -> paths := p :: !paths)
      usage;
    let roots =
      match List.rev !paths with
      | [] -> List.filter Sys.file_exists default_roots
      | roots -> roots
    in
    let missing = List.filter (fun r -> not (Sys.file_exists r)) roots in
    List.iter (Printf.eprintf "%s: no such path: %s\n" tool) missing;
    if missing <> [] then exit 2;
    let files = List.concat_map (Fs.collect ~ext) roots in
    let violations = analyze files in
    if !json then print_string (Report.to_json violations)
    else begin
      print_string (Report.human violations);
      Printf.eprintf "%s: %d file(s), %d violation(s)\n" tool
        (List.length files) (List.length violations)
    end;
    exit (if violations = [] then 0 else 1)
end

module Cmt = struct
  open Typedtree

  type input = {
    cmt_path : string;
    rule_path : string option;
    source : string option;
  }

  type unit_ = {
    unit_name : string;
    rule_path : string;
    structure : structure;
    allows : Allow.t list;
  }

  (* "Dmw_crypto__Share.t" and "Dmw_crypto.Share.t" both become
     ["Dmw_crypto"; "Share"; "t"]. *)
  let comps_of_name s =
    let buf = Buffer.create (String.length s) in
    let n = String.length s in
    let i = ref 0 in
    while !i < n do
      if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
        Buffer.add_char buf '.';
        i := !i + 2
      end
      else begin
        Buffer.add_char buf s.[!i];
        incr i
      end
    done;
    String.split_on_char '.' (Buffer.contents buf)

  (* A bare local name is qualified with the current unit so that
     agent.ml's own [t] reads as [Agent.t]. *)
  let key_of ~unit_name path =
    match List.rev (comps_of_name (Path.name path)) with
    | [ x ] -> Some (unit_name, x)
    | v :: m :: _ -> Some (m, v)
    | [] -> None

  (* Record-field types and `let x : τ` annotations are wrapped in Tpoly
     in the typedtree; peel it before inspecting the constructor. *)
  let rec unpoly ty =
    match Types.get_desc ty with Types.Tpoly (t, _) -> unpoly t | _ -> ty

  let type_last2 ~unit_name ty =
    match Types.get_desc (unpoly ty) with
    | Types.Tconstr (p, _, _) -> key_of ~unit_name p
    | _ -> None

  let sub_exprs e =
    let acc = ref [] in
    let it =
      { Tast_iterator.default_iterator with
        expr = (fun _ e' -> acc := e' :: !acc) }
    in
    Tast_iterator.default_iterator.expr it e;
    List.rev !acc

  let rec spine ~unit_name (e : expression) =
    match e.exp_desc with
    | Texp_apply (f, args) -> (
        let h, a0 = spine ~unit_name f in
        let args = a0 @ args in
        match (head_key ~unit_name h, args) with
        | Some ("Stdlib", "@@"), [ (_, Some f'); x ]
        | Some ("Stdlib", "|>"), [ x; (_, Some f') ] ->
            let h', a' = spine ~unit_name f' in
            (h', a' @ [ x ])
        | _ -> (h, args))
    | _ -> (e, [])

  and head_key ~unit_name (e : expression) =
    match e.exp_desc with
    | Texp_ident (p, _, _) -> key_of ~unit_name p
    | _ -> None

  (* "Dmw_core__Agent" -> "Agent": what follows the last "__". *)
  let unit_of_modname m =
    let rec after_last i =
      match Fs.find_substring ~start:i m "__" with
      | Some j -> after_last (j + 2)
      | None -> i
    in
    let s = after_last 0 in
    String.sub m s (String.length m - s)

  let failure file what exn =
    { Report.file;
      line = 1;
      col = 0;
      rule = "cmt";
      message = what ^ ": " ^ Printexc.to_string exn }

  let load ~marker errors input =
    match Cmt_format.read_cmt input.cmt_path with
    | exception exn ->
        errors := failure input.cmt_path "cannot read cmt" exn :: !errors;
        None
    | { cmt_annots = Implementation structure; cmt_sourcefile; cmt_modname; _ }
      -> (
        let rule_path =
          match (input.rule_path, cmt_sourcefile) with
          | Some p, _ -> Some (Fs.normalize p)
          | None, Some f when Filename.check_suffix f ".ml" ->
              Some (Fs.normalize f)
          | None, _ -> None (* dune namespace/alias modules *)
        in
        match rule_path with
        | None -> None
        | Some rule_path ->
            let source =
              match input.source with
              | Some s -> Some s
              | None -> (
                  try Some (Fs.read_file rule_path) with Sys_error _ -> None)
            in
            let allows =
              match source with Some s -> Allow.scan ~marker s | None -> []
            in
            Some
              { unit_name = unit_of_modname cmt_modname;
                rule_path;
                structure;
                allows })
    | _ -> None

  let inputs paths =
    List.map
      (fun cmt_path -> { cmt_path; rule_path = None; source = None })
      paths

  let analyze (spec : Allow.spec) ~changed ~visit ~finish inputs =
    let errors = ref [] in
    let units = List.filter_map (load ~marker:spec.marker errors) inputs in
    let out = ref [] in
    let run ~emit u =
      try visit ~emit ~out u
      with exn ->
        errors := failure u.rule_path "analysis failed" exn :: !errors
    in
    let rounds = ref 0 in
    while !changed && !rounds < 12 do
      changed := false;
      incr rounds;
      List.iter (run ~emit:false) units
    done;
    List.iter (run ~emit:true) units;
    finish out;
    List.iter
      (fun u ->
        let found = Allow.hygiene spec ~file:u.rule_path u.allows in
        out := List.rev_append found !out)
      units;
    let sorted = List.sort Report.by_position (!out @ !errors) in
    let rec dedup = function
      | (a : Report.violation) :: b :: rest
        when a.file = b.file && a.line = b.line && a.col = b.col
             && a.rule = b.rule ->
          dedup (b :: rest)
      | a :: rest -> a :: dedup rest
      | [] -> []
    in
    dedup sorted
end
