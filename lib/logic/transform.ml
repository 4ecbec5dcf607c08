open Formula

(* Every transform here is first-order; extension nodes are refused. *)
let not_fo fn f =
  invalid_arg (Printf.sprintf "Transform.%s: not first-order: %s" fn (to_string f))

let rec nnf f =
  match f with
  | True | False | Eq _ | Rel _ -> f
  | Not g -> nnf_not g
  | And (g, h) -> And (nnf g, nnf h)
  | Or (g, h) -> Or (nnf g, nnf h)
  | Implies (g, h) -> Or (nnf_not g, nnf h)
  | Iff (g, h) -> And (Or (nnf_not g, nnf h), Or (nnf_not h, nnf g))
  | Exists (x, g) -> Exists (x, nnf g)
  | Forall (x, g) -> Forall (x, nnf g)
  | _ -> not_fo "nnf" f

and nnf_not f =
  match f with
  | True -> False
  | False -> True
  | Eq _ | Rel _ -> Not f
  | Not g -> nnf g
  | And (g, h) -> Or (nnf_not g, nnf_not h)
  | Or (g, h) -> And (nnf_not g, nnf_not h)
  | Implies (g, h) -> And (nnf g, nnf_not h)
  | Iff (g, h) -> Or (And (nnf g, nnf_not h), And (nnf h, nnf_not g))
  | Exists (x, g) -> Forall (x, nnf_not g)
  | Forall (x, g) -> Exists (x, nnf_not g)
  | _ -> not_fo "nnf" f

let rename_apart f =
  let used = ref (all_vars f) in
  let fresh base =
    let x = fresh_var !used base in
    used := x :: !used;
    x
  in
  (* [env] maps bound variables to their fresh names. *)
  let rec go env f =
    let rename_term t =
      match t with
      | Term.Var x -> (
          match List.assoc_opt x env with
          | Some x' -> Term.Var x'
          | None -> t)
      | Term.Const _ -> t
    in
    match f with
    | Eq (a, b) -> Eq (rename_term a, rename_term b)
    | Rel (r, ts) -> Rel (r, List.map rename_term ts)
    | True | False | Not _ | And _ | Or _ | Implies _ | Iff _ -> map_sub (go env) f
    | Exists (x, g) ->
        let x' = fresh x in
        Exists (x', go ((x, x') :: env) g)
    | Forall (x, g) ->
        let x' = fresh x in
        Forall (x', go ((x, x') :: env) g)
    | _ -> not_fo "rename_apart" f
  in
  go [] f

(* Prenex conversion assumes an NNF, renamed-apart input so quantifiers can
   be hoisted without capture. *)
let prenex f =
  let rec pull f =
    match f with
    | True | False | Eq _ | Rel _ | Not _ -> ([], f)
    | And (g, h) ->
        let qg, mg = pull g and qh, mh = pull h in
        (qg @ qh, And (mg, mh))
    | Or (g, h) ->
        let qg, mg = pull g and qh, mh = pull h in
        (qg @ qh, Or (mg, mh))
    | Exists (x, g) ->
        let qs, m = pull g in
        ((`E, x) :: qs, m)
    | Forall (x, g) ->
        let qs, m = pull g in
        ((`A, x) :: qs, m)
    | _ -> assert false (* nnf leaves no Implies/Iff and refuses the rest *)
  in
  let qs, matrix = pull (rename_apart (nnf f)) in
  List.fold_right
    (fun (q, x) body ->
      match q with `E -> Exists (x, body) | `A -> Forall (x, body))
    qs matrix

let rec simplify f =
  match f with
  | True | False | Eq _ | Rel _ -> f
  | Not g -> (
      match simplify g with
      | True -> False
      | False -> True
      | Not h -> h
      | h -> Not h)
  | And (g, h) -> (
      match (simplify g, simplify h) with
      | True, k | k, True -> k
      | False, _ | _, False -> False
      | g', h' -> And (g', h'))
  | Or (g, h) -> (
      match (simplify g, simplify h) with
      | False, k | k, False -> k
      | True, _ | _, True -> True
      | g', h' -> Or (g', h'))
  | Implies (g, h) -> (
      match (simplify g, simplify h) with
      | False, _ | _, True -> True
      | True, k -> k
      | g', False -> simplify (Not g')
      | g', h' -> Implies (g', h'))
  | Iff (g, h) -> (
      match (simplify g, simplify h) with
      | True, k | k, True -> k
      | False, k | k, False -> simplify (Not k)
      | g', h' -> Iff (g', h'))
  (* [∃x.⊤] and [∀x.⊥] stay: they hold, respectively fail, only on
     nonempty domains, and the empty structure is legal. *)
  | Exists (x, g) -> (
      match simplify g with False -> False | g' -> Exists (x, g'))
  | Forall (x, g) -> (
      match simplify g with True -> True | g' -> Forall (x, g'))
  | _ -> not_fo "simplify" f

let rec relativize ~guard f =
  match f with
  | True | False | Eq _ | Rel _ | Not _ | And _ | Or _ | Implies _ | Iff _ ->
      map_sub (relativize ~guard) f
  | Exists (x, g) -> Exists (x, And (guard x, relativize ~guard g))
  | Forall (x, g) -> Forall (x, Implies (guard x, relativize ~guard g))
  | _ -> not_fo "relativize" f
