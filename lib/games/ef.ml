(* EF-game move semantics over the generic kernel — see ef.mli.

   The solver loop (memo, parallel fan-out, budget polling, stats) lives
   in {!Engine}; this module only says what an EF position is and how it
   expands: the spoiler pebbles any element on either side, the
   duplicator must answer with an element keeping the played pairs a
   partial isomorphism, and the game value is the conjunction over
   spoiler moves of the disjunction over duplicator replies. *)

module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Iso = Fmtk_structure.Iso
module Wl = Fmtk_structure.Wl
module Orbit = Fmtk_structure.Orbit
module Budget = Fmtk_runtime.Budget
module Signature = Fmtk_logic.Signature
module Formula = Fmtk_logic.Formula
module Term = Fmtk_logic.Term
module Transform = Fmtk_logic.Transform
module Compiled = Fmtk_eval.Compiled

type config = {
  memo : bool;
  parallel : bool;
  workers : int option;
  orbit : bool;
}

let default_config = { memo = true; parallel = true; workers = None; orbit = true }

type stats = Engine.stats = {
  positions : int;
  memo_hits : int;
  workers : int;
}

type verdict = Engine.verdict =
  | Equivalent
  | Distinguished
  | Gave_up of Budget.reason

module Game = struct
  type ctx = {
    dom_a : int list;
    dom_b : int list;
    colors_a : int array;
    colors_b : int array;
    span : int;
    orbit_a : Orbit.t option;
    orbit_b : Orbit.t option;
    (* [Iso.extension_ok a b], resolved in [setup]: it holds built
       indexes, so workers share it read-only. *)
    extension_ok : (int * int) list -> int * int -> bool;
  }

  (* A position carries the remaining rounds, the played pairs (for the
     incremental extension checks), the packed key material and
     the per-side stabilizer orbits of the pebbled elements. *)
  type pos = {
    rounds : int;
    pairs : (int * int) list;
    packed : Packed.Key.t;
    oa : Orbit.orbits option;
    ob : Orbit.orbits option;
  }

  let key _ p = Packed.key ~rounds:p.rounds p.packed

  (* Rounds exhausted: the surviving pairs are a partial isomorphism by
     construction, so the duplicator has won. *)
  let terminal _ p = if p.rounds = 0 then Some true else None

  (* Orbit oracles: spoiler moves (and duplicator replies) in the same
     orbit of the pointwise stabilizer of the position's elements lead
     to isomorphic subgames, so only one representative per orbit is
     explored. Shared across workers — the caches are mutex-guarded. *)
  let refine ot o pin =
    match (ot, o) with
    | Some t, Some o -> Some (Orbit.refine t o [ pin ])
    | _ -> None

  let moves_of o dom = match o with Some o -> Orbit.reps o | None -> dom

  (* Candidate ordering heuristic: try duplicator replies whose WL colour
     matches the spoiler's element first — the good reply is usually found
     immediately, which matters because [List.exists] short-circuits. *)
  let ordered_replies spoiler_color replies colors =
    let matching, rest =
      List.partition (fun y -> colors.(y) = spoiler_color) replies
    in
    matching @ rest

  (* The duplicator's candidate answers to the spoiler's [pick], in the
     order they are tried. [other_first] means the spoiler played in [b]
     and the duplicator answers in [a]. *)
  let replies ctx pos other_first pick =
    if other_first then
      ordered_replies ctx.colors_b.(pick)
        (moves_of pos.oa ctx.dom_a)
        ctx.colors_a
    else
      ordered_replies ctx.colors_a.(pick) (moves_of pos.ob ctx.dom_b) ctx.colors_b

  (* The played pair of a spoiler pick and a duplicator reply. *)
  let pair other_first pick reply =
    if other_first then (reply, pick) else (pick, reply)

  let child ctx pos (x, y) =
    {
      rounds = pos.rounds - 1;
      pairs = (x, y) :: pos.pairs;
      packed = Packed.insert pos.packed ((x * ctx.span) + y);
      oa = refine ctx.orbit_a pos.oa x;
      ob = refine ctx.orbit_b pos.ob y;
    }

  (* Can the duplicator answer the spoiler's [pick]? *)
  let answer ctx ~recurse pos other_first pick =
    List.exists
      (fun reply ->
        let xy = pair other_first pick reply in
        ctx.extension_ok pos.pairs xy && recurse (child ctx pos xy))
      (replies ctx pos other_first pick)

  let expand ctx ~recurse pos =
    List.for_all
      (fun x -> answer ctx ~recurse pos false x)
      (moves_of pos.oa ctx.dom_a)
    && List.for_all
         (fun y -> answer ctx ~recurse pos true y)
         (moves_of pos.ob ctx.dom_b)

  let tasks ctx pos =
    List.map
      (fun x ~recurse -> answer ctx ~recurse pos false x)
      (moves_of pos.oa ctx.dom_a)
    @ List.map
        (fun y ~recurse -> answer ctx ~recurse pos true y)
        (moves_of pos.ob ctx.dom_b)
end

module Solver = Engine.Make (Game)

let no_stats = { positions = 0; memo_hits = 0; workers = 1 }

let engine_config config =
  { Engine.memo = config.memo; parallel = config.parallel; workers = config.workers }

(* The game's context and root position, or [None] when [start] is not
   a partial isomorphism. The orbit oracles share the budget, so
   exhaustion can surface here. *)
let setup ~config ~budget ~start ~rounds a b =
  if rounds < 0 then invalid_arg "Ef: negative round count";
  let check side s e =
    if e < 0 || e >= Structure.size s then
      invalid_arg
        (Printf.sprintf "Ef: start element %d outside the %s domain [0,%d)" e
           side (Structure.size s))
  in
  List.iter (fun (x, y) -> check "left" a x; check "right" b y) start;
  if not (Iso.partial_iso a b start) then None
  else begin
    let colors_a, colors_b = Wl.colors_joint a b in
    let orbit_a, orbit_b =
      if config.orbit then
        (Some (Orbit.make ~budget a), Some (Orbit.make ~budget b))
      else (None, None)
    in
    let root_of ot side =
      match ot with
      | Some t -> Some (Orbit.refine t (Orbit.root t) (List.map side start))
      | None -> None
    in
    let span = max 1 (Structure.size b) in
    let ctx =
      {
        Game.dom_a = Structure.domain a;
        dom_b = Structure.domain b;
        colors_a;
        colors_b;
        span;
        orbit_a;
        orbit_b;
        extension_ok = Iso.extension_ok a b;
      }
    in
    let root =
      {
        Game.rounds;
        pairs = start;
        packed = Packed.of_pairs ~span start;
        oa = root_of orbit_a fst;
        ob = root_of orbit_b snd;
      }
    in
    Some (ctx, root)
  end

let solve_verdict ?(config = default_config) ?(budget = Budget.unlimited)
    ?(start = []) ~rounds a b =
  match setup ~config ~budget ~start ~rounds a b with
  | exception Budget.Exhausted r -> (Gave_up r, no_stats)
  | None -> (Distinguished, no_stats)
  | Some (ctx, root) -> (
      match
        Solver.solve_result ~config:(engine_config config) ~budget
          ~depth_hint:rounds
          ~width:(Structure.size a + Structure.size b)
          ctx root
      with
      | Ok true, stats -> (Equivalent, stats)
      | Ok false, stats -> (Distinguished, stats)
      | Error r, stats -> (Gave_up r, stats))

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
     move in [expand]'s order that every reply loses gives [∃x ⋀ψ] (in a)
     or [∀x ⋁ψ] (in b), one [ψ] per reply [expand] tries — a literal where
     the extension check refuses it, else the child's walk. [value] is the
     solve's, so on a complete memo only stored positions are read. *)
  let rec walk (ctx : Game.ctx) value pebbles (pos : Game.pos) =
    let ok xy = ctx.extension_ok pos.pairs xy in
    let wins other_first pick =
      List.for_all
        (fun reply ->
          let xy = Game.pair other_first pick reply in
          not (ok xy && value (Game.child ctx pos xy)))
        (Game.replies ctx pos other_first pick)
    in
    let other_first, pick =
      match List.find_opt (wins false) (Game.moves_of pos.oa ctx.dom_a) with
      | Some x -> (false, x)
      | None -> (true, List.find (wins true) (Game.moves_of pos.ob ctx.dom_b))
    in
    let x = var (List.length pebbles + 1) in
    let sub reply =
      let ((u, v) as xy) = Game.pair other_first pick reply in
      let pebbles = pebbles @ [ (Term.Var x, u, v) ] in
      if ok xy then walk ctx value pebbles (Game.child ctx pos xy)
      else literal pebbles ~pivot:(Some (Term.Var x))
    in
    let subs =
      List.sort_uniq Formula.compare
        (List.map sub (Game.replies ctx pos other_first pick))
    in
    if other_first then Formula.forall x (Formula.disj subs)
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
  match setup ~config ~budget ~start ~rounds a b with
  | exception Budget.Exhausted r -> (Gave_up r, None, no_stats)
  | None -> (Distinguished, checked (literal pebbles ~pivot:None), no_stats)
  | Some (ctx, root) -> (
      let value, stats = Solver.sequential ~config:(engine_config config) ~budget ctx in
      match value root with
      | exception Budget.Exhausted r -> (Gave_up r, None, stats ())
      | true -> (Equivalent, None, stats ())
      | false -> (
          let st = stats () in
          (* Exhaustion during the walk leaves the verdict standing. *)
          match walk ctx value pebbles root with
          | phi -> (Distinguished, checked phi, st)
          | exception Budget.Exhausted _ -> (Distinguished, None, st)))
