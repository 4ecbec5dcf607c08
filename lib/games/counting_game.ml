(* Bijective k-pebble counting game on the board — see counting_game.mli.
   The duplicator survives a base iff the bipartite "good pairs" graph —
   (x, y) such that pebbling (x, y) keeps a partial isomorphism AND the
   child position is winning — has a perfect matching: the per-element
   requirements are independent, so any system of distinct
   representatives glues into a witnessing bijection. *)

module Structure = Fmtk_structure.Structure
module Budget = Fmtk_runtime.Budget

(* No orbit field: symmetry pruning is unsound here because the
   duplicator's bijection must cover every element, not one orbit
   representative. The kernel config is the whole config. *)
type config = Engine.config = {
  memo : bool;
  parallel : bool;
  workers : int option;
}

let default_config = Engine.default_config

type stats = Engine.stats = {
  positions : int;
  memo_hits : int;
  workers : int;
}

type verdict = Engine.verdict =
  | Equivalent
  | Distinguished
  | Gave_up of Budget.reason

(* Kuhn's augmenting-path algorithm: does the bipartite graph given by
   [rows] (row x = admissible partners of x, both sides 0..n-1) admit a
   perfect matching? Rows are processed scarcest-first, which finds dead
   ends before wasting augmentations on flexible rows. *)
let perfect_matching rows n =
  let match_b = Array.make n (-1) in
  let visited = Array.make n false in
  let rec augment x =
    List.exists
      (fun y ->
        if visited.(y) then false
        else begin
          visited.(y) <- true;
          if match_b.(y) = -1 || augment match_b.(y) then begin
            match_b.(y) <- x;
            true
          end
          else false
        end)
      rows.(x)
  in
  let order = List.init n Fun.id in
  let order =
    List.sort
      (fun x x' ->
        Int.compare (List.length rows.(x)) (List.length rows.(x')))
      order
  in
  List.for_all
    (fun x ->
      Array.fill visited 0 n false;
      augment x)
    order

module Game = struct
  (* The board, plus what the bijection ranges over. *)
  type ctx = { board : Board.ctx; n : int; dom_b : int list }
  type pos = Board.pos

  let key ctx = Board.key ctx.board
  let terminal ctx = Board.terminal ctx.board

  let survives ctx ~recurse base =
    let exception Stuck in
    match
      Array.init ctx.n (fun x ->
          let row =
            List.filter
              (fun y ->
                Board.legal ctx.board base (x, y)
                && recurse (Board.place ctx.board base (x, y)))
              ctx.dom_b
          in
          (* An element with no admissible image refutes every bijection
             at once — skip the remaining rows and the matching. *)
          if row = [] then raise Stuck else row)
    with
    | rows -> perfect_matching rows ctx.n
    | exception Stuck -> false

  let expand ctx ~recurse pos =
    List.for_all (survives ctx ~recurse) (Board.bases ctx.board pos)

  (* The bijection move does not decompose into independent root
     obligations (the matching couples all elements), so the root is a
     single task and the solve stays sequential — the kernel's fan-out
     simply never engages. *)
  let tasks ctx pos = [ (fun ~recurse -> expand ctx ~recurse pos) ]
end

module Solver = Engine.Make (Game)

let solve_verdict ?(config = default_config) ?(budget = Budget.unlimited)
    ~pebbles ~rounds a b =
  if pebbles <= 0 then invalid_arg "Counting_game: need at least one pebble";
  if rounds < 0 then invalid_arg "Counting_game: negative round count";
  match Board.setup ~orbit:false ~budget ~pebbles ~start:[] ~rounds a b with
  (* Different sizes admit no bijection A → B: the spoiler wins round
     one outright. (At rank 0 the game never reaches a bijection move,
     so the constants-only check in [setup] is the whole story — C^k
     sentences of quantifier rank 0 cannot count the domain.) *)
  | Some (board, root) when rounds = 0 || Structure.size a = Structure.size b ->
      let ctx = { Game.board; n = Structure.size a; dom_b = Structure.domain b } in
      Solver.solve_verdict ~config ~budget ~depth_hint:rounds
        ~width:(Structure.size a + Structure.size b)
        ctx root
  | _ -> (Distinguished, Engine.no_stats)

let solve ?config ?budget ~pebbles ~rounds a b =
  match solve_verdict ?config ?budget ~pebbles ~rounds a b with
  | Gave_up r, _ -> raise (Budget.Exhausted r)
  | verdict, stats -> (verdict = Equivalent, stats)

let duplicator_wins ?config ?budget ~pebbles ~rounds a b =
  fst (solve ?config ?budget ~pebbles ~rounds a b)

let equiv_ck ?config ?budget ~k ~rank a b =
  duplicator_wins ?config ?budget ~pebbles:k ~rounds:rank a b
