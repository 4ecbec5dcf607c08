module Formula = Fmtk_logic.Formula
module Term = Fmtk_logic.Term
module Transform = Fmtk_logic.Transform
module Tuple = Fmtk_structure.Tuple
open Algebra

let nullary_true = Lit (Relation.make [] [ [||] ])
let nullary_false = Lit (Relation.empty [])

let const_as c x = Rename ([ ("#1", x) ], Base ("@" ^ c))

(* Nullary "the domain is nonempty" guard, used when a quantifier binds a
   variable that does not occur in its scope. *)
let domain_nonempty = Project ([], Base adom)

(* Extends [e] (with attribute set [have]) to attribute set [want] by
   joining unconstrained adom columns. *)
let extend e have want =
  let seen = Hashtbl.create 16 in
  List.iter (fun x -> Hashtbl.replace seen x ()) have;
  List.fold_left
    (fun acc x ->
      if Hashtbl.mem seen x then acc
      else begin
        Hashtbl.add seen x ();
        Join (acc, adom_as x)
      end)
    e want

let positional i = Printf.sprintf "#%d" (i + 1)

(* Order-preserving dedup in O(n) hashtable probes (the old List.mem fold
   was quadratic on wide atoms). *)
let dedup xs =
  let seen = Hashtbl.create (2 * List.length xs + 1) in
  List.filter
    (fun x ->
      if Hashtbl.mem seen x then false
      else begin
        Hashtbl.add seen x ();
        true
      end)
    xs

let compile_atom r ts =
  (* Constrain constant positions by joining the singleton tables, then
     equate repeated-variable positions, then rename/project to variables. *)
  let base =
    List.fold_left
      (fun acc (i, t) ->
        match t with
        | Term.Const c -> Join (acc, const_as c (positional i))
        | Term.Var _ -> acc)
      (Base r)
      (List.mapi (fun i t -> (i, t)) ts)
  in
  (* First positional attribute of each variable. *)
  let first_pos = Hashtbl.create 8 in
  let equalities = ref [] in
  List.iteri
    (fun i t ->
      match t with
      | Term.Var x -> (
          match Hashtbl.find_opt first_pos x with
          | None -> Hashtbl.add first_pos x (positional i)
          | Some p -> equalities := Eq_attr (p, positional i) :: !equalities)
      | Term.Const _ -> ())
    ts;
  let selected =
    List.fold_left (fun acc p -> Select (p, acc)) base !equalities
  in
  let var_list =
    List.filter_map
      (fun t -> match t with Term.Var x -> Some x | Term.Const _ -> None)
      ts
    |> dedup
  in
  let renames = List.map (fun x -> (Hashtbl.find first_pos x, x)) var_list in
  Project (var_list, Rename (renames, selected))

let compile_eq t u =
  match (t, u) with
  | Term.Var x, Term.Var y when x = y -> adom_as x
  | Term.Var x, Term.Var y ->
      Select (Eq_attr (x, y), Join (adom_as x, adom_as y))
  | Term.Var x, Term.Const c | Term.Const c, Term.Var x -> const_as c x
  | Term.Const c, Term.Const d ->
      (* Nonempty iff the two constants coincide. *)
      Project ([], Join (const_as c "#eq", const_as d "#eq"))

let rec compile_f f =
  match f with
  | Formula.True -> nullary_true
  | Formula.False -> nullary_false
  | Formula.Rel (r, ts) -> compile_atom r ts
  | Formula.Eq (t, u) -> compile_eq t u
  | Formula.Not g ->
      let fv = Formula.free_vars g in
      let full = extend nullary_true [] fv in
      Diff (full, compile_f g)
  | Formula.And (g, h) -> Join (compile_f g, compile_f h)
  | Formula.Or (g, h) ->
      let fvg = Formula.free_vars g and fvh = Formula.free_vars h in
      let all = dedup (fvg @ fvh) in
      Union (extend (compile_f g) fvg all, extend (compile_f h) fvh all)
  | Formula.Implies (g, h) -> compile_f (Formula.Or (Formula.Not g, h))
  | Formula.Iff (g, h) ->
      compile_f
        (Formula.And (Formula.Implies (g, h), Formula.Implies (h, g)))
  | Formula.Exists (x, g) ->
      let fvg = Formula.free_vars g in
      if List.mem x fvg then
        Project (List.filter (fun y -> y <> x) fvg, compile_f g)
      else Join (compile_f g, domain_nonempty)
  | Formula.Forall (x, g) ->
      compile_f (Formula.Not (Formula.Exists (x, Formula.Not g)))
  | _ ->
      invalid_arg
        ("Compile.compile: not first-order: " ^ Formula.to_string f)

let compile f = compile_f f

(* ---- Safe-range analysis (Abiteboul–Hull–Vianu, ch. 5) ---- *)

module SSet = Set.Make (String)

exception Unsafe

(* Range-restricted variables of an SRNF formula. *)
let rec rr f =
  match f with
  | Formula.True | Formula.False -> SSet.empty
  | Formula.Rel (_, ts) ->
      List.fold_left
        (fun acc t ->
          match t with Term.Var x -> SSet.add x acc | Term.Const _ -> acc)
        SSet.empty ts
  | Formula.Eq (Term.Var x, Term.Const _) | Formula.Eq (Term.Const _, Term.Var x)
    ->
      SSet.singleton x
  | Formula.Eq (Term.Var _, Term.Var _) -> SSet.empty
  | Formula.Eq (Term.Const _, Term.Const _) -> SSet.empty
  | Formula.And (g, Formula.Eq (Term.Var x, Term.Var y))
  | Formula.And (Formula.Eq (Term.Var x, Term.Var y), g) ->
      let r = rr g in
      if SSet.mem x r || SSet.mem y r then SSet.add x (SSet.add y r) else r
  | Formula.And (g, h) -> SSet.union (rr g) (rr h)
  | Formula.Or (g, h) -> SSet.inter (rr g) (rr h)
  | Formula.Not g ->
      ignore (rr g);
      SSet.empty
  | Formula.Exists (x, g) ->
      let r = rr g in
      if SSet.mem x r then SSet.remove x r else raise Unsafe
  | _ ->
      (* Forall, Implies and Iff are removed by the SRNF rewriting below;
         extension nodes never reach here. *)
      assert false

(* SRNF: eliminate ->, <->, forall; push negation through quantifiers only
   as needed. NNF is a valid SRNF input. *)
let safe_range f =
  Formula.is_fo f
  &&
  (* nnf leaves no Implies/Iff/…; Forall must be re-expressed. *)
  let rec deforall g =
    match g with
    | Formula.Forall (x, h) ->
        Formula.Not (Formula.Exists (x, Formula.Not (deforall h)))
    | _ -> Formula.map_sub deforall g
  in
  let g = deforall (Transform.nnf f) in
  match rr g with
  | r -> SSet.equal r (SSet.of_list (Formula.free_vars g))
  | exception Unsafe -> false

(* ---- evaluation entry points ---- *)

(* Planner-backed evaluation with adom-padded (natural) semantics. *)
let answers_any ?budget s f =
  if not (Formula.is_fo f) then
    Error (`Msg ("not a first-order query: " ^ Formula.to_string f))
  else
    let db = Database.of_structure s in
    let fv = Formula.free_vars f in
    let e = Algebra.Project (fv, compile f) in
    match Planner.plan db e with
    | Error m -> Error (`Msg m)
    | Ok p -> (
        match Physical.run ?budget db p with
        | Error m -> Error (`Msg m)
        | Ok rel -> Ok (fv, Relation.tuples rel))

let sat_any ?budget s f =
  match Formula.free_vars f with
  | _ :: _ as fv ->
      Error
        (`Msg
           (Printf.sprintf "not a sentence (free: %s)" (String.concat ", " fv)))
  | [] -> (
      match answers_any ?budget s f with
      | Error (`Msg m) -> Error (`Msg m)
      | Ok (_, tuples) -> Ok (not (Fmtk_structure.Tuple.Set.is_empty tuples)))

let unsafe_msg f =
  `Msg
    (Format.asprintf
       "query is not safe-range (answers may depend on the domain beyond \
        the active domain): %a"
       Formula.pp f)

(* A formula that is not first-order falls through to the [_any]
   variants' refusal. *)
let answers ?budget s f =
  if Formula.is_fo f && not (safe_range f) then Error (unsafe_msg f)
  else answers_any ?budget s f

let sat ?budget s f =
  if Formula.is_fo f && not (safe_range f) then Error (unsafe_msg f)
  else sat_any ?budget s f

(* Naive reference path: structural recursion over list-of-tuples
   relations — the oracle the planner is differentially tested against. *)
let answers_naive s f =
  let db = Database.of_structure s in
  match Algebra.eval db (compile f) with
  | Error m -> Error (`Msg m)
  | Ok rel ->
      let fv = Formula.free_vars f in
      Ok (fv, Relation.tuples (Relation.project fv rel))
