(* EF games — see ef.mli. The n-round EF game is the board's pebble
   game ({!Board}) with a pebble for every start pair and every round;
   this module adds the certificates read off its memo. *)

module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Iso = Fmtk_structure.Iso
module Budget = Fmtk_runtime.Budget
module Signature = Fmtk_logic.Signature
module Formula = Fmtk_logic.Formula
module Term = Fmtk_logic.Term
module Transform = Fmtk_logic.Transform
module Compiled = Fmtk_eval.Compiled

type config = Board.config = {
  memo : bool;
  parallel : bool;
  workers : int option;
  orbit : bool;
}

let default_config = Board.default_config

type stats = Engine.stats = {
  positions : int;
  memo_hits : int;
  workers : int;
}

type verdict = Engine.verdict =
  | Equivalent
  | Distinguished
  | Gave_up of Budget.reason

(* The pebbles of [start] plus one per round: a pebble is always free,
   so the board never lifts one. *)
let pebble_count ~start ~rounds a b =
  if rounds < 0 then invalid_arg "Ef: negative round count";
  let check side s e =
    if e < 0 || e >= Structure.size s then
      invalid_arg
        (Printf.sprintf "Ef: start element %d outside the %s domain [0,%d)" e
           side (Structure.size s))
  in
  List.iter (fun (x, y) -> check "left" a x; check "right" b y) start;
  List.length start + rounds

let solve_verdict ?(config = default_config) ?(budget = Budget.unlimited)
    ?(start = []) ~rounds a b =
  let pebbles = pebble_count ~start ~rounds a b in
  Board.solve_verdict ~config ~budget ~pebbles ~start ~rounds a b

let solve ?config ?budget ?start ~rounds a b =
  match solve_verdict ?config ?budget ?start ~rounds a b with
  | Gave_up r, _ -> raise (Budget.Exhausted r)
  | verdict, stats -> (verdict = Equivalent, stats)

let duplicator_wins ?config ?budget ~rounds a b =
  fst (solve ?config ?budget ~rounds a b)

(* ---- Certificates: the spoiler's winning strategy, read off the memo ---- *)

let certify ?(config = default_config) ?(budget = Budget.unlimited)
    ?(start = []) ~rounds a b =
  let sg = Iso.joint_signature a b in
  (* Each side gets the relations it does not declare, empty. *)
  let pad s =
    List.fold_left
      (fun s (r, k) ->
        if Signature.mem_rel (Structure.signature s) r then s
        else Structure.with_rel s r k Tuple.Set.empty)
      s (Signature.rels sg)
  in
  let pa = pad a and pb = pad b in
  let var i = Printf.sprintf "x%d" i in
  let vars = List.mapi (fun i _ -> var (i + 1)) start in
  let consts =
    List.map
      (fun c -> (Term.Const c, Structure.const a c, Structure.const b c))
      (Signature.consts sg)
  in
  (* A rank-0 formula true of the [a] values of the (term, value in a,
     value in b) triples and false of the [b] values: an atom with [pivot]
     (if given), negated only when no positive atom separates. *)
  let literal pebbles ~pivot =
    let terms = pebbles @ consts in
    let rec tuples k =
      if k = 0 then [ [] ]
      else List.concat_map (fun u -> List.map (List.cons u) (tuples (k - 1))) terms
    in
    let eq v = v.(0) = v.(1) in
    let atoms =
      List.concat_map
        (fun (atom, k, in_a, in_b) ->
          List.filter_map
            (fun ts ->
              let at side = Array.of_list (List.map side ts) in
              if pivot <> None && not (List.exists (fun (t, _, _) -> Some t = pivot) ts)
              then None
              else
                Some
                  ( atom (List.map (fun (t, _, _) -> t) ts),
                    in_a (at (fun (_, x, _) -> x)),
                    in_b (at (fun (_, _, y) -> y)) ))
            (tuples k))
        (((fun ts -> Formula.Eq (List.hd ts, List.nth ts 1)), 2, eq, eq)
        :: List.map
             (fun (r, k) ->
               ((fun ts -> Formula.Rel (r, ts)), k, Structure.probe pa r, Structure.probe pb r))
             (Signature.rels sg))
    in
    let find x y =
      List.find_map (fun (f, x', y') -> if (x', y') = (x, y) then Some f else None) atoms
    in
    match (find true false, find false true) with
    | Some f, _ -> f
    | None, Some f -> Formula.Not f
    | None, None -> failwith "Ef.certify: no literal separates a refused position"
  in
  (* The strategy from a lost [pos] (pebbles in play order): the first
     spoiler move in the board's order that every reply loses gives
     [∃x ⋀ψ] (in a) or [∀x ⋁ψ] (in b), one [ψ] per reply the board tries —
     a literal where the extension check refuses it, else the child's
     walk. [value] is the solve's, so on a complete memo only stored
     positions are read. EF never lifts a pebble, so each move pebbles a
     fresh variable. *)
  let rec walk ctx value pebbles pos =
    let base, side, pick =
      List.find_map
        (fun (base, side, picks) ->
          List.find_opt (fun e -> not (Board.answer ctx ~recurse:value base side e)) picks
          |> Option.map (fun e -> (base, side, e)))
        (Board.moves ctx pos)
      |> Option.get
    in
    let x = var (List.length pebbles + 1) in
    let sub reply =
      let ((u, v) as xy) = Board.pair side pick reply in
      let pebbles = pebbles @ [ (Term.Var x, u, v) ] in
      if Board.legal ctx base xy then walk ctx value pebbles (Board.place ctx base xy)
      else literal pebbles ~pivot:(Some (Term.Var x))
    in
    let subs =
      List.sort_uniq Formula.compare (List.map sub (Board.replies ctx base side pick))
    in
    if side then Formula.forall x (Formula.disj subs)
    else Formula.exists x (Formula.conj subs)
  in
  (* A bad walk is an internal error, never an answer. *)
  let checked phi =
    let phi = Transform.simplify phi in
    let holds s side =
      Compiled.run (Compiled.compile_with s ~vars phi)
        (Array.of_list (List.map side start))
    in
    if Formula.quantifier_rank phi <= rounds && holds pa fst && not (holds pb snd)
    then Some phi
    else
      failwith
        (Printf.sprintf "Ef.certify: %s does not separate the structures at rank %d"
           (Formula.to_string phi) rounds)
  in
  let pebbles = List.map2 (fun x (u, v) -> (Term.Var x, u, v)) vars start in
  let k = pebble_count ~start ~rounds a b in
  match Board.setup ~orbit:config.orbit ~budget ~pebbles:k ~start ~rounds a b with
  | exception Budget.Exhausted r -> (Gave_up r, None, Engine.no_stats)
  | None -> (Distinguished, checked (literal pebbles ~pivot:None), Engine.no_stats)
  | Some (ctx, root) -> (
      let value, stats = Board.sequential ~config ~budget ctx in
      match value root with
      | exception Budget.Exhausted r -> (Gave_up r, None, stats ())
      | true -> (Equivalent, None, stats ())
      | false -> (
          let st = stats () in
          (* Exhaustion during the walk leaves the verdict standing. *)
          match walk ctx value pebbles root with
          | phi -> (Distinguished, checked phi, st)
          | exception Budget.Exhausted _ -> (Distinguished, None, st)))
