(* Bijective k-pebble counting game over the generic kernel — see
   counting_game.mli.

   Move semantics (Immerman–Lander / Hella): from a base position the
   duplicator must commit to a bijection f : A → B before the spoiler
   places the chosen pebble on any a ∈ A (landing on (a, f a)). The
   duplicator therefore survives a base iff the bipartite "good pairs"
   graph — (x, y) such that pebbling (x, y) keeps a partial isomorphism
   AND the resulting child position is winning — admits a perfect
   matching, which is how the exists-bijection-forall-element quantifier
   alternation becomes finite: the per-element requirements are
   independent, so any system of distinct representatives glues into a
   witnessing bijection. The kernel supplies memo/budget/stats; only the
   matching logic below is counting-game-specific. *)

module Structure = Fmtk_structure.Structure
module Iso = Fmtk_structure.Iso
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
  type ctx = {
    n : int; (* common domain size *)
    dom_b : int list;
    span : int;
    pebbles : int;
    extension_ok : (int * int) list -> int * int -> bool;
  }

  (* Same packed-position representation as the pebble game: a sorted
     set of packed pairs plus the remaining rounds. *)
  type pos = { rounds : int; packed : Packed.Key.t }

  let key _ p = Packed.key ~rounds:p.rounds p.packed
  let terminal _ p = if p.rounds = 0 then Some true else None

  (* Base positions the spoiler's pebble choice can produce: keep all
     pairs (an unused pebble, when one exists) or lift one. Identical to
     the pebble game — the counting game differs only in how the round
     is then played. *)
  let bases ctx pos =
    let lifted =
      List.init (Array.length pos.packed) (Packed.remove pos.packed)
    in
    let bs =
      if Array.length pos.packed < ctx.pebbles then pos.packed :: lifted
      else lifted
    in
    if bs = [] then [ [||] ] else bs

  let survives ctx ~recurse ~rounds base =
    let base_pairs = Packed.to_pairs ~span:ctx.span base in
    let exception Stuck in
    match
      Array.init ctx.n (fun x ->
          let row =
            List.filter
              (fun y ->
                ctx.extension_ok base_pairs (x, y)
                && recurse
                     {
                       rounds = rounds - 1;
                       packed = Packed.insert base ((x * ctx.span) + y);
                     })
              ctx.dom_b
          in
          (* An element with no admissible image refutes every bijection
             at once — skip the remaining rows and the matching. *)
          if row = [] then raise Stuck else row)
    with
    | rows -> perfect_matching rows ctx.n
    | exception Stuck -> false

  let expand ctx ~recurse pos =
    List.for_all (survives ctx ~recurse ~rounds:pos.rounds) (bases ctx pos)

  (* The bijection move does not decompose into independent root
     obligations (the matching couples all elements), so the root is a
     single task and the solve stays sequential — the kernel's fan-out
     simply never engages. *)
  let tasks ctx pos = [ (fun ~recurse -> expand ctx ~recurse pos) ]
end

module Solver = Engine.Make (Game)

let solve_result ~config ~budget ~pebbles ~rounds a b =
  if pebbles <= 0 then invalid_arg "Counting_game: need at least one pebble";
  if rounds < 0 then invalid_arg "Counting_game: negative round count";
  let zero = { positions = 0; memo_hits = 0; workers = 1 } in
  if not (Iso.partial_iso a b []) then (Ok false, zero)
  else if rounds > 0 && Structure.size a <> Structure.size b then
    (* No bijection A → B exists: the spoiler wins round one outright.
       (At rank 0 the game never reaches a bijection move, so the
       constants-only check above is the whole story — C^k sentences of
       quantifier rank 0 cannot count the domain.) *)
    (Ok false, zero)
  else
    let ctx =
      {
        Game.n = Structure.size a;
        dom_b = Structure.domain b;
        span = max 1 (Structure.size b);
        pebbles;
        extension_ok = Iso.extension_ok a b;
      }
    in
    Solver.solve_result ~config ~budget ~depth_hint:rounds
      ~width:(Structure.size a + Structure.size b)
      ctx
      { Game.rounds; packed = [||] }

let solve ?(config = default_config) ?(budget = Budget.unlimited) ~pebbles
    ~rounds a b =
  match solve_result ~config ~budget ~pebbles ~rounds a b with
  | Ok v, stats -> (v, stats)
  | Error r, _ -> raise (Budget.Exhausted r)

let solve_verdict ?(config = default_config) ?(budget = Budget.unlimited)
    ~pebbles ~rounds a b =
  match solve_result ~config ~budget ~pebbles ~rounds a b with
  | Ok true, stats -> (Equivalent, stats)
  | Ok false, stats -> (Distinguished, stats)
  | Error r, stats -> (Gave_up r, stats)

let duplicator_wins ?config ?budget ~pebbles ~rounds a b =
  fst (solve ?config ?budget ~pebbles ~rounds a b)

let equiv_ck ?config ?budget ~k ~rank a b =
  duplicator_wins ?config ?budget ~pebbles:k ~rounds:rank a b
