(* The interprocedural may-flow engine behind dmw_taint and dmw_det.
   See flow.mli for the model and the policy interface.

   Deliberate approximations, documented here once: conditions do not
   taint branches (no implicit flows — the protocol's control flow is
   public, and a clock read that only decides {e when} a deterministic
   message is sent does not make its payload nondeterministic); local
   recursion is evaluated in one pass; values stored into containers
   by effectful calls (Hashtbl.add / Mailbox.push) lose their taint;
   closures stored in records lose their parameter-sink summaries; and
   a commutative reduction (min/max folds) over an unordered iteration
   is still flagged. The flows the passes care about are direct data
   flows into messages, sockets, journals, traces and logs. *)

open Typedtree
module Report = Analysis_kit.Report
module Allow = Analysis_kit.Allow
module Cmt = Analysis_kit.Cmt

type verdict =
  | Clean
  | Source of string
  | Sink of string * string
  | Strips of string
  | Iterates of string

type field = Cleans | Adds of string | Keeps

type 'scope policy = {
  annotations : Allow.spec;
  hint : string;
  describe : string -> string;
  scope_for : string -> 'scope;
  apply : 'scope -> string * string -> verdict option;
  field : 'scope -> unit_name:string -> Types.label_description -> field;
  msg_rule : string;
  record_sink : string * string -> (string * string) option;
  admitted : string -> string list;
  use_site : Path.t -> (string * string) option;
}

module S = Set.Make (String)

let param_class = "@param"
let param_taint = S.singleton param_class
let concrete t = S.remove param_class t

(* Container HOFs where the element taint must reach the closure's
   parameters and, for transforms, the result must be the closure's
   output only — so that projecting a clean field out of a secret
   record (dealer.public) actually cleans. *)
let hof_transform v =
  List.mem v
    [ "map"; "mapi"; "map2"; "rev_map"; "filter_map"; "concat_map"; "init" ]

let hof_other v =
  List.mem v
    [ "iter"; "iteri"; "iter2"; "fold_left"; "fold_right"; "filter";
      "partition"; "find_opt"; "find_map"; "sort"; "stable_sort" ]

let is_hof (m, v) =
  (m = "Array" || m = "List") && (hof_transform v || hof_other v)

(* ------------------------------------------------------------------ *)
(* Summaries                                                           *)
(* ------------------------------------------------------------------ *)

type summary = { ret : S.t; psinks : (string * string) list }

type 'scope ctx = {
  policy : 'scope policy;
  scope : 'scope;
  unit_name : string;
  rule_path : string;
  allows : Allow.t list;
  summaries : (string, summary) Hashtbl.t;
  emit : bool;
  out : Report.violation list ref;
  changed : bool ref;
  mutable psinks : (string * string) list;
}

let summary_find ctx key = Hashtbl.find_opt ctx.summaries key

let summary_set ctx key s =
  match Hashtbl.find_opt ctx.summaries key with
  | None ->
      Hashtbl.replace ctx.summaries key s;
      if not (S.is_empty s.ret) || s.psinks <> [] then ctx.changed := true
  | Some old ->
      let ret = S.union old.ret s.ret in
      let psinks =
        old.psinks
        @ List.filter (fun p -> not (List.mem p old.psinks)) s.psinks
      in
      if
        (not (S.equal ret old.ret))
        || List.length psinks <> List.length old.psinks
      then begin
        Hashtbl.replace ctx.summaries key { ret; psinks };
        ctx.changed := true
      end

let summary_of ctx path =
  match Cmt.key_of ~unit_name:ctx.unit_name path with
  | Some (m, v) -> summary_find ctx (m ^ "." ^ v)
  | None -> None

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

type env = (string, S.t) Hashtbl.t

let env_set (env : env) id t = Hashtbl.replace env (Ident.unique_name id) t

let env_union (env : env) id t =
  let k = Ident.unique_name id in
  let old = Option.value (Hashtbl.find_opt env k) ~default:S.empty in
  Hashtbl.replace env k (S.union old t)

let env_get (env : env) id =
  Option.value (Hashtbl.find_opt env (Ident.unique_name id)) ~default:S.empty

let lookup_value ctx env path =
  match path with
  | Path.Pident id when Hashtbl.mem env (Ident.unique_name id) ->
      env_get env id
  | _ -> (match summary_of ctx path with Some s -> s.ret | None -> S.empty)

let lookup_fn ctx env path =
  match path with
  | Path.Pident id when Hashtbl.mem env (Ident.unique_name id) ->
      (env_get env id, None)
  | _ -> (
      match summary_of ctx path with
      | Some s -> (s.ret, Some s)
      | None -> (param_taint, None))

(* Recursive bindings start from their summaries of the previous
   round. *)
let prebind ctx env rf vbs =
  if rf = Asttypes.Recursive then
    List.iter
      (fun vb ->
        List.iter
          (fun id ->
            let key = ctx.unit_name ^ "." ^ Ident.name id in
            let t =
              match summary_find ctx key with
              | Some s -> s.ret
              | None -> S.empty
            in
            env_set env id t)
          (pat_bound_idents vb.vb_pat))
      vbs

(* ------------------------------------------------------------------ *)
(* Violations                                                          *)
(* ------------------------------------------------------------------ *)

(* In the emit pass, a finding at [loc] unless an annotation with a
   sanctioned keyword covers its line. *)
let report ctx ~loc ~rule message =
  if ctx.emit then begin
    let p = loc.Location.loc_start in
    let line = p.Lexing.pos_lnum in
    let col = p.Lexing.pos_cnum - p.Lexing.pos_bol in
    let keywords = ctx.policy.annotations.keywords in
    let keyword_ok kw = List.mem kw keywords in
    if not (Allow.claim ctx.allows ~line ~keyword_ok) then
      ctx.out :=
        { Report.file = ctx.rule_path; line; col; rule; message } :: !(ctx.out)
  end

(* A concretely-tainted value at a sink is a violation (suppressible
   by an annotation); a parameter-tainted one is recorded as a
   parameter sink of the enclosing top-level binding so the leak is
   reported at the call sites that supply the tainted values. *)
let sink_check ctx ?via ~loc ~rule ~sink taint =
  let taint =
    List.fold_left (fun t c -> S.remove c t) taint (ctx.policy.admitted rule)
  in
  let conc = concrete taint in
  if not (S.is_empty conc) then
    let via_s = match via with None -> "" | Some f -> " via " ^ f in
    report ctx ~loc ~rule
      (Printf.sprintf "%s reaches %s%s — %s"
         (String.concat ", " (List.map ctx.policy.describe (S.elements conc)))
         sink via_s ctx.policy.hint)
  else if S.mem param_class taint && not (List.mem (rule, sink) ctx.psinks)
  then ctx.psinks <- (rule, sink) :: ctx.psinks

(* ------------------------------------------------------------------ *)
(* The evaluator                                                       *)
(* ------------------------------------------------------------------ *)

let subst base args =
  if S.mem param_class base then S.union (S.remove param_class base) args
  else base

let iter_record_fields f p =
  let it =
    { Tast_iterator.default_iterator with
      pat =
        (fun (type k) it (q : k general_pattern) ->
          (match q.pat_desc with
          | Tpat_record (fields, _) ->
              List.iter (fun (_, lbl, sub) -> f lbl sub) fields
          | _ -> ());
          Tast_iterator.default_iterator.pat it q) }
  in
  it.pat it p

let field_policy ctx lbl =
  ctx.policy.field ctx.scope ~unit_name:ctx.unit_name lbl

(* Bind every variable of [p] to the scrutinee taint [t], then refine
   record sub-patterns through the field policy (in taint, a
   destructured share/dealer field is a source; dealer.public is
   clean). *)
let bind_pattern : type k. 's ctx -> env -> k general_pattern -> S.t -> unit =
 fun ctx env p t ->
  List.iter (fun id -> env_set env id t) (pat_bound_idents p);
  iter_record_fields
    (fun lbl sub ->
      let set t' =
        List.iter (fun id -> env_set env id t') (pat_bound_idents sub)
      in
      match field_policy ctx lbl with
      | Adds cls -> set (S.add cls t)
      | Cleans -> set S.empty
      | Keeps -> ())
    p

let rec eval ctx env (e : expression) : S.t =
  let union es =
    List.fold_left (fun acc x -> S.union acc (eval ctx env x)) S.empty es
  in
  match e.exp_desc with
  | Texp_constant _ -> S.empty
  | Texp_ident (path, _, _) -> lookup_value ctx env path
  | Texp_let (rf, vbs, body) ->
      prebind ctx env rf vbs;
      List.iter
        (fun vb -> bind_pattern ctx env vb.vb_pat (eval ctx env vb.vb_expr))
        vbs;
      eval ctx env body
  | Texp_function { cases; _ } -> eval_cases ctx env ~ptaint:param_taint cases
  | Texp_apply _ -> eval_apply ctx env e
  | Texp_match (scrut, cases, _) ->
      let st = eval ctx env scrut in
      eval_cases ctx env ~ptaint:st cases
  | Texp_try (body, cases) ->
      S.union (eval ctx env body) (eval_cases ctx env ~ptaint:S.empty cases)
  | Texp_tuple es | Texp_array es -> union es
  | Texp_construct (_, cstr, args) ->
      let t = union args in
      if
        Cmt.type_last2 ~unit_name:ctx.unit_name cstr.Types.cstr_res
        = Some ("Messages", "t")
      then begin
        sink_check ctx ~loc:e.exp_loc ~rule:ctx.policy.msg_rule
          ~sink:("the Messages." ^ cstr.Types.cstr_name ^ " constructor")
          t;
        (* Constructing the message is the boundary: either the payload
           was clean, it was annotated, or it was reported — in every
           case the envelope itself travels. *)
        S.empty
      end
      else t
  | Texp_record { fields; extended_expression; _ } -> (
      let base =
        match extended_expression with
        | Some b -> eval ctx env b
        | None -> S.empty
      in
      let t =
        Array.fold_left
          (fun acc (_, def) ->
            match def with
            | Overridden (_, x) -> S.union acc (eval ctx env x)
            | _ -> acc)
          base fields
      in
      match
        Option.bind
          (Cmt.type_last2 ~unit_name:ctx.unit_name e.exp_type)
          ctx.policy.record_sink
      with
      | Some (rule, sink) ->
          sink_check ctx ~loc:e.exp_loc ~rule ~sink t;
          S.empty
      | None -> t)
  | Texp_field (r, _, lbl) -> (
      let rt = eval ctx env r in
      match field_policy ctx lbl with
      | Cleans -> S.empty
      | Adds cls -> S.add cls rt
      | Keeps -> rt)
  | Texp_setfield (r, _, _, v) ->
      let vt = eval ctx env v in
      (match r.exp_desc with
      | Texp_ident (Path.Pident id, _, _) -> env_union env id vt
      | _ -> ignore (eval ctx env r));
      S.empty
  | Texp_ifthenelse (c, a, b) ->
      ignore (eval ctx env c);
      let ta = eval ctx env a in
      let tb = match b with Some b -> eval ctx env b | None -> S.empty in
      S.union ta tb
  | Texp_sequence (a, b) ->
      ignore (eval ctx env a);
      eval ctx env b
  | Texp_open (_, body) -> eval ctx env body
  | _ -> union (Cmt.sub_exprs e)

and eval_apply ctx env (e : expression) =
  let h, args = Cmt.spine ~unit_name:ctx.unit_name e in
  let arg_exprs = List.filter_map snd args in
  match h.exp_desc with
  | Texp_ident (p, _, _) when ctx.policy.use_site p <> None ->
      List.iter (fun a -> ignore (eval ctx env a)) arg_exprs;
      let rule, message = Option.get (ctx.policy.use_site p) in
      report ctx ~loc:e.exp_loc ~rule message;
      S.empty
  | _ -> (
      let fkey = Cmt.head_key ~unit_name:ctx.unit_name h in
      let verdict = Option.bind fkey (ctx.policy.apply ctx.scope) in
      let is_closure a =
        match a.exp_desc with Texp_function _ -> true | _ -> false
      in
      let closures, plain = List.partition is_closure arg_exprs in
      let plain_taint =
        List.fold_left (fun acc a -> S.union acc (eval ctx env a)) S.empty plain
      in
      (* Assignment through a ref keeps the cell's taint current. *)
      (match (fkey, arg_exprs) with
      | ( Some (_, ":="),
          [ { exp_desc = Texp_ident (Path.Pident id, _, _); _ }; v ] ) ->
          env_union env id (eval ctx env v)
      | _ -> ());
      (* A policy verdict wins over the HOF rule: det's sorts are in the
         HOF table, but a sort's comparator does not see the elements. *)
      let hof =
        match (verdict, fkey) with
        | None, Some k -> is_hof k && closures <> []
        | _ -> false
      in
      let closure_taint =
        List.fold_left
          (fun acc c ->
            let ptaint =
              match verdict with
              | Some (Iterates cls) -> S.add cls plain_taint
              | _ -> if hof then plain_taint else param_taint
            in
            match c.exp_desc with
            | Texp_function { cases; _ } ->
                S.union acc (eval_cases ctx env ~ptaint cases)
            | _ -> S.union acc (eval ctx env c))
          S.empty closures
      in
      let all_args = S.union plain_taint closure_taint in
      match (verdict, fkey) with
      | Some Clean, _ -> S.empty
      | Some (Source cls), _ -> S.singleton cls
      | Some (Sink (rule, sink)), _ ->
          sink_check ctx ~loc:e.exp_loc ~rule ~sink all_args;
          S.empty
      | Some (Strips cls), _ -> S.remove cls all_args
      | Some (Iterates cls), _ -> S.add cls all_args
      | None, Some (_, v) when hof ->
          if hof_transform v then closure_taint
          else S.union plain_taint closure_taint
      | None, _ ->
          let base, smry =
            match h.exp_desc with
            | Texp_ident (p, _, _) -> lookup_fn ctx env p
            | _ -> (S.add param_class (eval ctx env h), None)
          in
          (match smry with
          | Some s when s.psinks <> [] ->
              let via =
                match fkey with Some (m, v) -> m ^ "." ^ v | None -> "?"
              in
              List.iter
                (fun (rule, sink) ->
                  sink_check ctx ~via ~loc:e.exp_loc ~rule ~sink all_args)
                s.psinks
          | _ -> ());
          subst base all_args)

and eval_cases : 's 'k. 's ctx -> env -> ptaint:S.t -> 'k case list -> S.t =
 fun ctx env ~ptaint cases ->
  List.fold_left
    (fun acc c ->
      bind_pattern ctx env c.c_lhs ptaint;
      (match c.c_guard with Some g -> ignore (eval ctx env g) | None -> ());
      S.union acc (eval ctx env c.c_rhs))
    S.empty cases

(* ------------------------------------------------------------------ *)
(* Structures and units                                                *)
(* ------------------------------------------------------------------ *)

let rec process_structure ctx env (str : structure) =
  List.iter
    (fun item ->
      match item.str_desc with
      | Tstr_value (rf, vbs) ->
          prebind ctx env rf vbs;
          List.iter
            (fun vb ->
              ctx.psinks <- [];
              bind_pattern ctx env vb.vb_pat (eval ctx env vb.vb_expr);
              List.iter
                (fun id ->
                  let key = ctx.unit_name ^ "." ^ Ident.name id in
                  summary_set ctx key
                    { ret = env_get env id; psinks = ctx.psinks })
                (pat_bound_idents vb.vb_pat))
            vbs
      | Tstr_eval (e, _) ->
          ctx.psinks <- [];
          ignore (eval ctx env e)
      | Tstr_module mb -> process_module ctx env mb.mb_expr
      | Tstr_recmodule mbs ->
          List.iter (fun mb -> process_module ctx env mb.mb_expr) mbs
      | _ -> ())
    str.str_items

and process_module ctx env me =
  match me.mod_desc with
  | Tmod_structure s -> process_structure ctx env s
  | Tmod_constraint (me, _, _, _) -> process_module ctx env me
  | Tmod_functor (_, me) -> process_module ctx env me
  | _ -> ()

let analyze policy inputs =
  let summaries = Hashtbl.create 256 in
  let changed = ref true in
  Cmt.analyze policy.annotations ~changed ~finish:ignore
    ~visit:(fun ~emit ~out (u : Cmt.unit_) ->
      let ctx =
        { policy;
          scope = policy.scope_for u.rule_path;
          unit_name = u.unit_name;
          rule_path = u.rule_path;
          allows = u.allows;
          summaries;
          emit;
          out;
          changed;
          psinks = [] }
      in
      process_structure ctx (Hashtbl.create 128) u.structure)
    inputs
