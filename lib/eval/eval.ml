module Formula = Fmtk_logic.Formula
module Term = Fmtk_logic.Term
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Budget = Fmtk_runtime.Budget

type stats = {
  mutable atom_checks : int;
  mutable quantifier_steps : int;
  mutable stages : int;
  mutable tuples_tested : int;
  mutable set_candidates : int;
  mutable rel_candidates : int;
}

let new_stats () =
  {
    atom_checks = 0;
    quantifier_steps = 0;
    stages = 0;
    tuples_tested = 0;
    set_candidates = 0;
    rel_candidates = 0;
  }

type env = (string * int) list

let empty_env = []
let bind x e env = (x, e) :: env
let lookup env x = List.assoc_opt x env

let eval_term a env = function
  | Term.Var x -> (
      match lookup env x with
      | Some e -> e
      | None -> invalid_arg (Printf.sprintf "Eval: unbound variable %S" x))
  | Term.Const c -> (
      match Structure.const a c with
      | e -> e
      | exception Not_found ->
          invalid_arg (Printf.sprintf "Eval: uninterpreted constant %S" c))

(* Values of relation variables: fixpoint stages and quantified relations
   are tuple sets of a fixed arity, quantified sets are membership arrays. *)
type rval = Tuples of int * Tuple.Set.t | Set of bool array

(* Fixpoint sets, keyed by the IFP node and the values of the outer free
   variables of its body; shared by every evaluation under one entry
   point on one structure. *)
type cache = (Formula.t * env, Tuple.Set.t) Hashtbl.t

let max_set_domain = 22
let max_rel_cells = 20

(* Enumerate the subsets of [0..n-1] through one membership array, which
   changes only between calls of [f]. *)
let subsets n f =
  if n > max_set_domain then
    invalid_arg
      (Printf.sprintf "Eval: domain too large for set quantification (> %d)"
         max_set_domain);
  let member = Array.make n false in
  let rec go mask =
    mask < 1 lsl n
    && begin
         for i = 0 to n - 1 do
           member.(i) <- mask land (1 lsl i) <> 0
         done;
         f member || go (mask + 1)
       end
  in
  go 0

(* Enumerate the arity-k relations over [0..n-1]. The cell count [n^k] is
   computed, saturating past the limit, before any cell is built. *)
let relations n k f =
  let rec cells acc i =
    if i = 0 || acc > max_rel_cells then acc else cells (acc * n) (i - 1)
  in
  let m = cells 1 k in
  if m > max_rel_cells then
    invalid_arg
      (Printf.sprintf
         "Eval: %d^%d cells is too large for relation quantification (> %d)" n
         k max_rel_cells);
  let cells = Array.of_seq (Tuple.all n k) in
  let rec go mask =
    mask < 1 lsl m
    &&
    let set = ref Tuple.Set.empty in
    for i = 0 to m - 1 do
      if mask land (1 lsl i) <> 0 then set := Tuple.Set.add cells.(i) !set
    done;
    f !set || go (mask + 1)
  in
  go 0

let run ~(cache : cache) ~poller ?stats a f env =
  let bump count =
    match stats with Some s -> count s | None -> ()
  in
  let bump_atom s = s.atom_checks <- s.atom_checks + 1
  and bump_quant s = s.quantifier_steps <- s.quantifier_steps + 1 in
  let n = Structure.size a in
  let rec go env renv f =
    Budget.check poller;
    match f with
    | Formula.True -> true
    | Formula.False -> false
    | Formula.Eq (t, u) ->
        bump bump_atom;
        eval_term a env t = eval_term a env u
    | Formula.Rel (r, ts) -> (
        bump bump_atom;
        let tup = Array.of_list (List.map (eval_term a env) ts) in
        (* [renv] is empty for FO: one match, then the structure. *)
        match List.assoc_opt r renv with
        | None -> (
            match Structure.mem a r tup with
            | b -> b
            | exception Not_found ->
                invalid_arg (Printf.sprintf "Eval: unknown relation %S" r))
        | Some (Tuples (k, set)) ->
            if Array.length tup <> k then
              invalid_arg
                (Printf.sprintf "Eval: relation variable %S has arity %d" r k);
            Tuple.Set.mem tup set
        | Some (Set _) ->
            invalid_arg
              (Printf.sprintf "Eval: set variable %S used as a relation" r))
    | Formula.Mem (t, x) -> (
        bump bump_atom;
        match List.assoc_opt x renv with
        | Some (Set member) -> member.(eval_term a env t)
        | _ -> invalid_arg (Printf.sprintf "Eval: unbound set variable %S" x))
    | Formula.Not g -> not (go env renv g)
    | Formula.And (g, h) -> go env renv g && go env renv h
    | Formula.Or (g, h) -> go env renv g || go env renv h
    | Formula.Implies (g, h) -> (not (go env renv g)) || go env renv h
    | Formula.Iff (g, h) -> go env renv g = go env renv h
    | Formula.Exists (x, g) ->
        let rec scan e =
          e < n
          && (bump bump_quant;
              go (bind x e env) renv g || scan (e + 1))
        in
        scan 0
    | Formula.Forall (x, g) ->
        let rec scan e =
          e >= n
          || (bump bump_quant;
              go (bind x e env) renv g && scan (e + 1))
        in
        scan 0
    | Formula.Count_geq (k, x, g) ->
        (* Stop at the k-th witness, or once too few elements remain. *)
        let rec scan e found =
          found >= k
          || (n - e + found >= k
             && (bump bump_quant;
                 scan (e + 1)
                   (if go (bind x e env) renv g then found + 1 else found)))
        in
        scan 0 0
    | Formula.Ifp (r, xs, body, ts) ->
        (match Formula.repeated xs with
        | Some x ->
            invalid_arg (Printf.sprintf "Eval: fixpoint %S binds %S twice" r x)
        | None -> ());
        let k = List.length xs in
        let fixpoint () = stages env renv r xs k body in
        let set =
          match renv with
          | [] -> (
              (* Outside any relation variable the fixpoint depends only on
                 the outer free variables of the body: cache it. *)
              let key =
                ( f,
                  List.filter_map
                    (fun x ->
                      if List.mem x xs then None
                      else
                        match lookup env x with
                        | Some e -> Some (x, e)
                        | None ->
                            invalid_arg
                              (Printf.sprintf "Eval: unbound variable %S" x))
                    (Formula.free_vars body) )
              in
              match Hashtbl.find_opt cache key with
              | Some set -> set
              | None ->
                  let set = fixpoint () in
                  Hashtbl.replace cache key set;
                  set)
          | _ -> fixpoint ()
        in
        let tup = Array.of_list (List.map (eval_term a env) ts) in
        if Array.length tup <> k then
          invalid_arg "Eval: IFP argument arity mismatch";
        Tuple.Set.mem tup set
    | Formula.Exists_set (x, g) ->
        subsets n (fun member ->
            bump (fun s -> s.set_candidates <- s.set_candidates + 1);
            go env ((x, Set member) :: renv) g)
    | Formula.Forall_set (x, g) ->
        not
          (subsets n (fun member ->
               bump (fun s -> s.set_candidates <- s.set_candidates + 1);
               not (go env ((x, Set member) :: renv) g)))
    | Formula.Exists_rel (r, k, g) ->
        relations n k (fun set ->
            bump (fun s -> s.rel_candidates <- s.rel_candidates + 1);
            go env ((r, Tuples (k, set)) :: renv) g)
    | Formula.Forall_rel (r, k, g) ->
        not
          (relations n k (fun set ->
               bump (fun s -> s.rel_candidates <- s.rel_candidates + 1);
               not (go env ((r, Tuples (k, set)) :: renv) g)))
  (* Stage [S_{i+1} = S_i ∪ {ā | body(S_i, ā)}] from ∅ until stable. *)
  and stages env renv r xs k body =
    let tuples = List.of_seq (Tuple.all n k) in
    let rec iterate set =
      bump (fun s -> s.stages <- s.stages + 1);
      let renv = (r, Tuples (k, set)) :: renv in
      let additions =
        List.filter
          (fun tup ->
            Budget.check poller;
            bump (fun s -> s.tuples_tested <- s.tuples_tested + 1);
            (not (Tuple.Set.mem tup set))
            && go (List.combine xs (Array.to_list tup) @ env) renv body)
          tuples
      in
      if additions = [] then set
      else iterate (List.fold_left (fun s t -> Tuple.Set.add t s) set additions)
    in
    iterate Tuple.Set.empty
  in
  go env [] f

let holds ?stats ?(budget = Budget.unlimited) a f ~env =
  run ~cache:(Hashtbl.create 8) ~poller:(Budget.poller budget) ?stats a f env

let sat ?stats ?budget a f =
  (match Formula.free_vars f with
  | [] -> ()
  | fv ->
      invalid_arg
        (Printf.sprintf "Eval.sat: not a sentence (free: %s)"
           (String.concat ", " fv)));
  holds ?stats ?budget a f ~env:empty_env

let definable_relation ?stats ?(budget = Budget.unlimited) a f ~vars =
  (match Formula.repeated vars with
  | Some x ->
      invalid_arg
        (Printf.sprintf "Eval.definable_relation: variable %S listed twice" x)
  | None -> ());
  let fv = Formula.free_vars f in
  List.iter
    (fun x ->
      if not (List.mem x vars) then
        invalid_arg
          (Printf.sprintf "Eval.definable_relation: free variable %S not listed" x))
    fv;
  (* One fixpoint cache for the whole enumeration: each fixpoint set is
     computed once, not once per candidate tuple. *)
  let cache = Hashtbl.create 8 and poller = Budget.poller budget in
  let n = Structure.size a in
  let vars_arr = Array.of_list vars in
  let k = Array.length vars_arr in
  let acc = ref Tuple.Set.empty in
  let tup = Array.make k 0 in
  let rec enum i env =
    if i = k then (
      if run ~cache ~poller ?stats a f env then
        acc := Tuple.Set.add (Array.copy tup) !acc)
    else
      for e = 0 to n - 1 do
        tup.(i) <- e;
        enum (i + 1) (bind vars_arr.(i) e env)
      done
  in
  enum 0 empty_env;
  !acc

let answers ?stats ?budget a f =
  let vars = Formula.free_vars f in
  (vars, definable_relation ?stats ?budget a f ~vars)
