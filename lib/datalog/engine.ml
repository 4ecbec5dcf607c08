module Tuple = Fmtk_structure.Tuple
module Structure = Fmtk_structure.Structure
module Budget = Fmtk_runtime.Budget
module Algebra = Fmtk_db.Algebra
module Relation = Fmtk_db.Relation
module SMap = Map.Make (String)

module Db = struct
  type t = Tuple.Set.t SMap.t

  let empty = SMap.empty

  let find db pred =
    Option.value ~default:Tuple.Set.empty (SMap.find_opt pred db)

  let add pred tuples db =
    SMap.add pred (Tuple.Set.union (find db pred) tuples) db

  let of_structure s =
    SMap.add "adom"
      (Tuple.Set.of_list (List.map (fun e -> [| e |]) (Structure.domain s)))
      (List.fold_left
         (fun db (name, _) -> SMap.add name (Structure.rel s name) db)
         SMap.empty
         (Fmtk_logic.Signature.rels (Structure.signature s)))
end

type stats = { iterations : int; join_work : int }

let invalid fmt = Printf.ksprintf (fun m -> invalid_arg ("Datalog: " ^ m)) fmt

(* The strata of a safe, stratifiable program, and the one arity of each
   predicate it mentions. *)
let check program =
  List.iter
    (fun r ->
      match Ast.range_restricted r with
      | Ok () -> ()
      | Error x ->
          invalid "rule not range-restricted (variable %S): %s" x
            (Format.asprintf "%a" Ast.pp_rule r))
    program;
  let strata =
    match Ast.stratify program with
    | Ok strata -> strata
    | Error p -> invalid "predicate %S negatively depends on itself" p
  in
  let arity =
    List.fold_left
      (fun acc (a : Ast.atom) ->
        let k = List.length a.args in
        match SMap.find_opt a.pred acc with
        | Some k' when k' <> k ->
            invalid "predicate %S is used with arities %d and %d" a.pred k' k
        | _ -> SMap.add a.pred k acc)
      SMap.empty
      (List.concat_map
         (fun (r : Ast.rule) ->
           r.head :: List.map (function Ast.Pos a | Ast.Neg a -> a) r.body)
         program)
  in
  (strata, arity)

let positional k = List.init k (fun i -> Printf.sprintf "#%d" (i + 1))

(* The bindings of [a]'s variables, one attribute each, under which a
   tuple of relation [name] matches [a]: constants and repeated variables
   select, and the first position of each variable is kept and renamed. *)
let atom_expr name (a : Ast.atom) =
  let conds, binds =
    List.fold_left
      (fun (conds, binds) (col, t) ->
        match t with
        | Ast.C c -> (Algebra.Eq_const (col, c) :: conds, binds)
        | Ast.V x -> (
            match List.find_opt (fun (_, y) -> y = x) binds with
            | Some (first, _) ->
                (Algebra.Eq_attr (first, col) :: conds, binds)
            | None -> (conds, (col, x) :: binds)))
      ([], [])
      (List.combine (positional (List.length a.args)) a.args)
  in
  let selected =
    List.fold_left
      (fun e c -> Algebra.Select (c, e))
      (Algebra.Base name) conds
  in
  let binds = List.rev binds in
  Algebra.Rename (binds, Algebra.Project (List.map fst binds, selected))

(* The join of a body's positive literals, starting from the nullary true
   relation, less each negated literal as an anti-join. Range restriction
   puts a negated literal's variables among the positive ones, so no
   active-domain padding is needed. [name i a] names the relation that
   literal [i] reads. *)
let body_expr name (r : Ast.rule) =
  let lits = List.mapi (fun i l -> (i, l)) r.body in
  let join p = function
    | i, Ast.Pos a -> Algebra.Join (p, atom_expr (name i a) a)
    | _, Ast.Neg _ -> p
  and anti p = function
    | i, Ast.Neg a ->
        Algebra.Diff (p, Algebra.Join (p, atom_expr (name i a) a))
    | _, Ast.Pos _ -> p
  in
  let nullary_true = Algebra.Lit (Relation.make [] [ [||] ]) in
  List.fold_left anti (List.fold_left join nullary_true lits) lits

(* [acc] plus the head tuple of every row of [body]. *)
let add_heads (h : Ast.atom) body acc =
  let args =
    List.map
      (function
        | Ast.C c -> Fun.const c
        | Ast.V x ->
            let i = List.find_index (( = ) x) (Relation.attrs body) in
            fun row -> row.(Option.get i))
      h.args
  in
  Tuple.Set.fold
    (fun row -> Tuple.Set.add (Array.of_list (List.map (fun f -> f row) args)))
    (Relation.tuples body) acc

(* Round one evaluates every rule of the stratum. Later rounds repeat that
   under naive evaluation. Under semi-naive evaluation they evaluate each
   rule once per positive literal whose predicate gained tuples in the
   previous round, with that literal reading just those tuples. Either way
   the stratum is saturated after the first round that adds nothing, so
   both strategies count the same rounds. *)
let evaluate ~seminaive ~budget program db =
  let strata, arity = check program in
  let relation p tuples =
    try Relation.of_set (positional (SMap.find p arity)) tuples
    with Invalid_argument m -> invalid "predicate %S: %s" p m
  in
  let full = ref (SMap.mapi (fun p _ -> relation p (Db.find db p)) arity) in
  let iterations = ref 0 and work = ref 0 in
  let rec round stratum delta =
    incr iterations;
    (* The round's database holds the relations its plans read: [=p] is
       predicate [p], [+p] the tuples [p] gained last round. The prefixes
       keep the names apart, whatever the predicates are called. *)
    let reads = ref SMap.empty in
    let read rels prefix (a : Ast.atom) =
      reads := SMap.add (prefix ^ a.pred) (SMap.find a.pred rels) !reads;
      prefix ^ a.pred
    in
    let instance ?from_delta (r : Ast.rule) =
      let name i a =
        if from_delta = Some i then read (Option.get delta) "+" a
        else read !full "=" a
      in
      (r.head, body_expr name r)
    in
    let instances =
      List.concat_map
        (fun (r : Ast.rule) ->
          match delta with
          | Some d when seminaive ->
              List.concat
                (List.mapi
                   (fun i -> function
                     | Ast.Pos a when SMap.mem a.pred d ->
                         [ instance ~from_delta:i r ]
                     | Ast.Pos _ | Ast.Neg _ -> [])
                   r.body)
          | _ -> [ instance r ])
        stratum
    in
    let rdb = Algebra.Database.make (SMap.bindings !reads) in
    let stats = Fmtk_db.Planner.stats_of_database rdb in
    let derived =
      List.fold_left
        (fun acc ((h : Ast.atom), e) ->
          match
            Result.bind
              (Fmtk_db.Planner.plan ~stats rdb e)
              (Fmtk_db.Physical.run ~budget rdb)
          with
          | Error m -> invalid "%s" m
          | Ok body ->
              work := !work + Relation.cardinality body;
              SMap.update h.pred
                (fun have ->
                  Some
                    (add_heads h body
                       (Option.value have ~default:Tuple.Set.empty)))
                acc)
        SMap.empty instances
    in
    let fresh =
      SMap.filter_map
        (fun p ts ->
          let old = SMap.find p !full in
          let f =
            Tuple.Set.filter
              (fun t -> not (Tuple.Set.mem t (Relation.tuples old)))
              ts
          in
          full := SMap.add p (Tuple.Set.fold Relation.add f old) !full;
          if Tuple.Set.is_empty f then None else Some (relation p f))
        derived
    in
    if not (SMap.is_empty fresh) then round stratum (Some fresh)
  in
  List.iter (fun stratum -> round stratum None) strata;
  let result =
    List.fold_left
      (fun acc p -> SMap.add p (Relation.tuples (SMap.find p !full)) acc)
      db (Ast.idb_preds program)
  in
  (result, { iterations = !iterations; join_work = !work })

let naive ?(budget = Budget.unlimited) program db =
  evaluate ~seminaive:false ~budget program db

let seminaive ?(budget = Budget.unlimited) program db =
  evaluate ~seminaive:true ~budget program db

let run ?(strategy = `Seminaive) ?budget program s ~pred =
  let db = Db.of_structure s in
  let result, _ =
    match strategy with
    | `Naive -> naive ?budget program db
    | `Seminaive -> seminaive ?budget program db
  in
  Db.find result pred
