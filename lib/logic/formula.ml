type t =
  | True
  | False
  | Eq of Term.t * Term.t
  | Rel of string * Term.t list
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Iff of t * t
  | Exists of string * t
  | Forall of string * t
  | Count_geq of int * string * t
  | Ifp of string * string list * t * Term.t list
  | Mem of Term.t * string
  | Exists_set of string * t
  | Forall_set of string * t
  | Exists_rel of string * int * t
  | Forall_rel of string * int * t

let eq a b = Eq (a, b)
let neq a b = Not (Eq (a, b))
let rel r ts = Rel (r, ts)
let not_ f = Not f

let conj = function
  | [] -> True
  | f :: fs -> List.fold_left (fun acc g -> And (acc, g)) f fs

let disj = function
  | [] -> False
  | f :: fs -> List.fold_left (fun acc g -> Or (acc, g)) f fs

let implies a b = Implies (a, b)
let iff a b = Iff (a, b)
let exists x f = Exists (x, f)
let forall x f = Forall (x, f)
let exists_many xs f = List.fold_right (fun x g -> Exists (x, g)) xs f
let forall_many xs f = List.fold_right (fun x g -> Forall (x, g)) xs f
let v x = Term.Var x
let c x = Term.Const x

let subformulas = function
  | True | False | Eq _ | Rel _ | Mem _ -> []
  | Not f
  | Exists (_, f)
  | Forall (_, f)
  | Count_geq (_, _, f)
  | Ifp (_, _, f, _)
  | Exists_set (_, f)
  | Forall_set (_, f)
  | Exists_rel (_, _, f)
  | Forall_rel (_, _, f) ->
      [ f ]
  | And (f, g) | Or (f, g) | Implies (f, g) | Iff (f, g) -> [ f; g ]

let map_sub h f =
  match f with
  | True | False | Eq _ | Rel _ | Mem _ -> f
  | Not g -> Not (h g)
  | And (g, k) -> And (h g, h k)
  | Or (g, k) -> Or (h g, h k)
  | Implies (g, k) -> Implies (h g, h k)
  | Iff (g, k) -> Iff (h g, h k)
  | Exists (x, g) -> Exists (x, h g)
  | Forall (x, g) -> Forall (x, h g)
  | Count_geq (k, x, g) -> Count_geq (k, x, h g)
  | Ifp (r, xs, g, ts) -> Ifp (r, xs, h g, ts)
  | Exists_set (x, g) -> Exists_set (x, h g)
  | Forall_set (x, g) -> Forall_set (x, h g)
  | Exists_rel (r, k, g) -> Exists_rel (r, k, h g)
  | Forall_rel (r, k, g) -> Forall_rel (r, k, h g)

let rec quantifier_rank f =
  let sub =
    List.fold_left (fun m g -> max m (quantifier_rank g)) 0 (subformulas f)
  in
  match f with Exists _ | Forall _ | Count_geq _ -> 1 + sub | _ -> sub

let rec size f = List.fold_left (fun n g -> n + size g) 1 (subformulas f)

let rec is_fo f =
  match f with
  | Count_geq _ | Ifp _ | Mem _ | Exists_set _ | Forall_set _ | Exists_rel _
  | Forall_rel _ ->
      false
  | _ -> List.for_all is_fo (subformulas f)

(* Accumulate names in first-occurrence order without duplicates. *)
let add_name acc x = if List.mem x acc then acc else acc @ [ x ]

let free_vars f =
  let rec go bound acc f =
    let terms acc ts =
      List.fold_left
        (fun acc x -> if List.mem x bound then acc else add_name acc x)
        acc (List.concat_map Term.vars ts)
    in
    match f with
    | Eq (a, b) -> terms acc [ a; b ]
    | Rel (_, ts) -> terms acc ts
    | Mem (t, _) -> terms acc [ t ]
    | Exists (x, g) | Forall (x, g) | Count_geq (_, x, g) ->
        go (x :: bound) acc g
    | Ifp (_, xs, body, ts) -> terms (go (xs @ bound) acc body) ts
    | _ -> List.fold_left (go bound) acc (subformulas f)
  in
  go [] [] f

let all_vars f =
  let rec go acc f =
    let terms acc ts = List.fold_left add_name acc (List.concat_map Term.vars ts) in
    match f with
    | Eq (a, b) -> terms acc [ a; b ]
    | Rel (_, ts) -> terms acc ts
    | Mem (t, _) -> terms acc [ t ]
    | Exists (x, g) | Forall (x, g) | Count_geq (_, x, g) -> go (add_name acc x) g
    | Ifp (_, xs, body, ts) ->
        terms (go (List.fold_left add_name acc xs) body) ts
    | _ -> List.fold_left go acc (subformulas f)
  in
  go [] f

let is_sentence f = free_vars f = []

let rec repeated = function
  | [] -> None
  | x :: rest -> if List.mem x rest then Some x else repeated rest

let rels_used f =
  let rec go bound acc f =
    match f with
    | Rel (r, ts) ->
        if List.mem r bound then acc else add_name acc (r, List.length ts)
    | Ifp (r, _, g, _) | Exists_rel (r, _, g) | Forall_rel (r, _, g) ->
        go (r :: bound) acc g
    | _ -> List.fold_left (go bound) acc (subformulas f)
  in
  go [] [] f

let check sg f =
  let ( let* ) = Result.bind in
  let terms ts =
    match
      List.find_map
        (function
          | Term.Const c when not (Signature.mem_const sg c) -> Some c
          | _ -> None)
        ts
    with
    | Some c -> Error (Printf.sprintf "undeclared constant %S" c)
    | None -> Ok ()
  in
  let arity r expected got =
    if expected = got then Ok ()
    else
      Error
        (Printf.sprintf "relation %S expects %d argument(s), got %d" r expected
           got)
  in
  (* Bound relation variables: [Some k] for arity k, [None] for a set. *)
  let rec go scope f =
    match f with
    | Eq (a, b) -> terms [ a; b ]
    | Rel (r, ts) ->
        let* () =
          match List.assoc_opt r scope with
          | Some (Some k) -> arity r k (List.length ts)
          | Some None ->
              Error (Printf.sprintf "set variable %S used as a relation" r)
          | None when Signature.mem_rel sg r ->
              arity r (Signature.arity sg r) (List.length ts)
          | None -> Error (Printf.sprintf "undeclared relation %S" r)
        in
        terms ts
    | Mem (t, x) -> (
        match List.assoc_opt x scope with
        | Some None -> terms [ t ]
        | _ -> Error (Printf.sprintf "unbound set variable %S" x))
    | Ifp (r, xs, body, ts) ->
        let k = List.length xs in
        let* () =
          match repeated xs with
          | Some x -> Error (Printf.sprintf "fixpoint %S binds %S twice" r x)
          | None -> Ok ()
        in
        let* () = go ((r, Some k) :: scope) body in
        let* () = arity r k (List.length ts) in
        terms ts
    | Exists_set (x, g) | Forall_set (x, g) -> go ((x, None) :: scope) g
    | Exists_rel (r, k, g) | Forall_rel (r, k, g) -> go ((r, Some k) :: scope) g
    | _ ->
        List.fold_left
          (fun acc g -> Result.bind acc (fun () -> go scope g))
          (Ok ()) (subformulas f)
  in
  go [] f

let fresh_var avoid base =
  if not (List.mem base avoid) then base
  else
    let rec try_idx i =
      let cand = Printf.sprintf "%s%d" base i in
      if List.mem cand avoid then try_idx (i + 1) else cand
    in
    try_idx 0

let rec subst x u f =
  let sub_t = Term.subst x u in
  match f with
  | Eq (a, b) -> Eq (sub_t a, sub_t b)
  | Rel (r, ts) -> Rel (r, List.map sub_t ts)
  | Mem (t, s) -> Mem (sub_t t, s)
  | Exists (y, g) -> subst_binder x u (fun y g -> Exists (y, g)) y g
  | Forall (y, g) -> subst_binder x u (fun y g -> Forall (y, g)) y g
  | Count_geq (k, y, g) -> subst_binder x u (fun y g -> Count_geq (k, y, g)) y g
  | Ifp (r, ys, body, ts) -> (
      let ts = List.map sub_t ts in
      if List.mem x ys then Ifp (r, ys, body, ts)
      else
        (* A tuple variable [u] would capture is renamed first, as for a
           quantified one. *)
        match List.find_opt (fun y -> List.mem y (Term.vars u)) ys with
        | None -> Ifp (r, ys, subst x u body, ts)
        | Some y ->
            let y' = fresh_var (Term.vars u @ all_vars body @ ys @ [ x ]) y in
            let ys = List.map (fun z -> if String.equal z y then y' else z) ys in
            Ifp (r, ys, subst x u (subst y (Term.Var y') body), ts))
  | _ -> map_sub (subst x u) f

and subst_binder x u mk y g =
  if String.equal y x then mk y g
  else if List.mem y (Term.vars u) then
    (* Capture: rename the bound variable first. *)
    let y' = fresh_var (Term.vars u @ all_vars g @ [ x ]) y in
    mk y' (subst x u (subst y (Term.Var y') g))
  else mk y (subst x u g)

let var_names n = List.init n (fun i -> Printf.sprintf "x%d" (i + 1))

let ordered_pairs xs =
  let rec go = function
    | [] -> []
    | x :: rest -> List.map (fun y -> (x, y)) rest @ go rest
  in
  go xs

let at_least n =
  if n <= 0 then True
  else if n = 1 then Exists ("x1", True)
  else
    let xs = var_names n in
    let distinct = List.map (fun (x, y) -> neq (v x) (v y)) (ordered_pairs xs) in
    exists_many xs (conj distinct)

let at_most n =
  let xs = var_names (n + 1) in
  let some_equal = List.map (fun (x, y) -> eq (v x) (v y)) (ordered_pairs xs) in
  forall_many xs (disj some_equal)

let exactly n = And (at_least n, at_most n)

let equal = ( = )
let compare = Stdlib.compare

(* Binding strength for parenthesization: atoms and negations bind
   tightest, then conjunction, then disjunction; implications,
   equivalences and binders are parenthesized wherever an operand is
   expected. *)
let prec = function
  | True | False | Eq _ | Rel _ | Mem _ | Ifp _ | Not _ -> 3
  | And _ -> 2
  | Or _ -> 1
  | Implies _ | Iff _ | Exists _ | Forall _ | Count_geq _ | Exists_set _
  | Forall_set _ | Exists_rel _ | Forall_rel _ ->
      0

let pp_terms =
  Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ") Term.pp

let rec pp ppf f =
  match f with
  | True -> Format.pp_print_string ppf "true"
  | False -> Format.pp_print_string ppf "false"
  | Eq (a, b) -> Format.fprintf ppf "%a = %a" Term.pp a Term.pp b
  | Not (Eq (a, b)) -> Format.fprintf ppf "%a != %a" Term.pp a Term.pp b
  | Rel (r, ts) -> Format.fprintf ppf "%s(%a)" r pp_terms ts
  | Mem (t, x) -> Format.fprintf ppf "%a in %s" Term.pp t x
  | Not g -> Format.fprintf ppf "!%a" (pp_at 3) g
  | And (g, h) -> Format.fprintf ppf "%a & %a" (pp_at 2) g (pp_at 2) h
  | Or (g, h) -> Format.fprintf ppf "%a | %a" (pp_at 1) g (pp_at 1) h
  | Implies (g, h) -> Format.fprintf ppf "%a -> %a" (pp_at 1) g (pp_at 1) h
  | Iff (g, h) -> Format.fprintf ppf "%a <-> %a" (pp_at 1) g (pp_at 1) h
  | Exists (x, g) -> Format.fprintf ppf "exists %s. %a" x pp g
  | Forall (x, g) -> Format.fprintf ppf "forall %s. %a" x pp g
  | Count_geq (k, x, g) -> Format.fprintf ppf "exists>=%d %s. %a" k x pp g
  | Ifp (r, xs, body, ts) ->
      Format.fprintf ppf "[IFP %s(%s). %a](%a)" r (String.concat "," xs) pp
        body pp_terms ts
  | Exists_set (x, g) -> Format.fprintf ppf "existsSet %s. %a" x pp g
  | Forall_set (x, g) -> Format.fprintf ppf "forallSet %s. %a" x pp g
  | Exists_rel (r, k, g) -> Format.fprintf ppf "existsRel %s/%d. %a" r k pp g
  | Forall_rel (r, k, g) -> Format.fprintf ppf "forallRel %s/%d. %a" r k pp g

and pp_at p ppf f =
  if prec f >= p then pp ppf f else Format.fprintf ppf "(%a)" pp f

let to_string f = Format.asprintf "%a" pp f
