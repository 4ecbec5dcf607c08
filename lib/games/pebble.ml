(* k-pebble-game move semantics over the generic kernel — see
   pebble.mli.

   The solver loop (memo, parallel fan-out, budget polling, stats) lives
   in {!Engine}; this module only says how a pebble position expands:
   the spoiler first chooses which pebble to move (equivalently, a base
   position with at most one pair lifted), then places it on an element
   of either structure; the duplicator answers in the other structure
   keeping the pebbled pairs a partial isomorphism. Porting onto the
   kernel is what gave this solver parallelism, stats and three-valued
   verdicts — none of it is pebble-specific code. *)

module Structure = Fmtk_structure.Structure
module Iso = Fmtk_structure.Iso
module Wl = Fmtk_structure.Wl
module Orbit = Fmtk_structure.Orbit
module Budget = Fmtk_runtime.Budget

type config = Ef.config = {
  memo : bool;
  parallel : bool;
  workers : int option;
  orbit : bool;
}

let default_config = Ef.default_config

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
    a : Structure.t;
    b : Structure.t;
    dom_a : int list;
    dom_b : int list;
    colors_a : int array;
    colors_b : int array;
    span : int;
    pebbles : int;
    orbit_a : Orbit.t option;
    orbit_b : Orbit.t option;
  }

  (* Positions are sorted packed pair arrays (set semantics: re-pebbling
     an occupied pair collapses); the pairs themselves are recovered
     with [Packed.to_pairs] where the extension checks need them. *)
  type pos = { rounds : int; packed : Packed.Key.t }

  let key _ p = Packed.key ~rounds:p.rounds p.packed
  let terminal _ p = if p.rounds = 0 then Some true else None

  (* Orbit pruning: the pebble game lifts pebbles, so pinned sets shrink
     as well as grow — positions do not refine incrementally. Stabilizer
     orbits are therefore looked up per base position (cached in the
     oracle, mutex-guarded, so parallel workers share it). *)
  let moves_of ot pinned dom =
    match ot with
    | Some t -> Orbit.reps (Orbit.stabilizer t pinned)
    | None -> dom

  (* Same reply-ordering heuristic as the EF solver: duplicator replies
     whose WL colour matches the spoiler's element first. *)
  let ordered_replies spoiler_color replies colors =
    let matching, rest =
      List.partition (fun y -> colors.(y) = spoiler_color) replies
    in
    matching @ rest

  (* Positions a spoiler move can start from: keep all pebbles, or lift
     one (mandatory when every pebble is on the board). [packed] is a
     strictly sorted set, so the lifted variants are pairwise distinct
     by construction. *)
  let bases ctx pos =
    let lifted =
      List.init (Array.length pos.packed) (Packed.remove pos.packed)
    in
    let bs =
      if Array.length pos.packed < ctx.pebbles then pos.packed :: lifted
      else lifted
    in
    if bs = [] then [ [||] ] else bs

  let answer ctx ~recurse ~rounds base base_pairs ~pinned_a ~pinned_b
      spoiler_in_a e =
    let replies =
      if spoiler_in_a then
        ordered_replies ctx.colors_a.(e)
          (moves_of ctx.orbit_b pinned_b ctx.dom_b)
          ctx.colors_b
      else
        ordered_replies ctx.colors_b.(e)
          (moves_of ctx.orbit_a pinned_a ctx.dom_a)
          ctx.colors_a
    in
    List.exists
      (fun r ->
        let x, y = if spoiler_in_a then (e, r) else (r, e) in
        Iso.extension_ok ctx.a ctx.b base_pairs (x, y)
        && recurse
             {
               rounds = rounds - 1;
               packed = Packed.insert base ((x * ctx.span) + y);
             })
      replies

  let survives ctx ~recurse ~rounds base =
    let base_pairs = Packed.to_pairs ~span:ctx.span base in
    let pinned_a = List.map fst base_pairs
    and pinned_b = List.map snd base_pairs in
    List.for_all
      (answer ctx ~recurse ~rounds base base_pairs ~pinned_a ~pinned_b true)
      (moves_of ctx.orbit_a pinned_a ctx.dom_a)
    && List.for_all
         (answer ctx ~recurse ~rounds base base_pairs ~pinned_a ~pinned_b
            false)
         (moves_of ctx.orbit_b pinned_b ctx.dom_b)

  let expand ctx ~recurse pos =
    List.for_all (survives ctx ~recurse ~rounds:pos.rounds) (bases ctx pos)

  (* One obligation per (base, spoiler move); at the usual empty root
     there is a single base, so this is the same spoiler-move fan-out as
     the EF game. *)
  let tasks ctx pos =
    List.concat_map
      (fun base ->
        let base_pairs = Packed.to_pairs ~span:ctx.span base in
        let pinned_a = List.map fst base_pairs
        and pinned_b = List.map snd base_pairs in
        List.map
          (fun e ~recurse ->
            answer ctx ~recurse ~rounds:pos.rounds base base_pairs ~pinned_a
              ~pinned_b true e)
          (moves_of ctx.orbit_a pinned_a ctx.dom_a)
        @ List.map
            (fun e ~recurse ->
              answer ctx ~recurse ~rounds:pos.rounds base base_pairs
                ~pinned_a ~pinned_b false e)
            (moves_of ctx.orbit_b pinned_b ctx.dom_b))
      (bases ctx pos)

  let prepare_shared ctx =
    Structure.ensure_indexes ctx.a;
    Structure.ensure_indexes ctx.b
end

module Solver = Engine.Make (Game)

let solve_result ~config ~budget ~pebbles ~rounds a b =
  if pebbles <= 0 then invalid_arg "Pebble: need at least one pebble";
  if rounds < 0 then invalid_arg "Pebble: negative round count";
  if not (Iso.partial_iso a b []) then
    (Ok false, { positions = 0; memo_hits = 0; workers = 1 })
  else begin
    let colors_a, colors_b = Wl.colors_joint a b in
    let orbit_a, orbit_b =
      if config.orbit then
        (Some (Orbit.make ~budget a), Some (Orbit.make ~budget b))
      else (None, None)
    in
    let ctx =
      {
        Game.a;
        b;
        dom_a = Structure.domain a;
        dom_b = Structure.domain b;
        colors_a;
        colors_b;
        span = max 1 (Structure.size b);
        pebbles;
        orbit_a;
        orbit_b;
      }
    in
    Solver.solve_result
      ~config:
        {
          Engine.memo = config.memo;
          parallel = config.parallel;
          workers = config.workers;
        }
      ~budget ~depth_hint:rounds ctx
      { Game.rounds; packed = [||] }
  end

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
  (* The orbit oracles are built before the search proper and share the
     budget, so exhaustion can also surface here. *)
  | exception Budget.Exhausted r ->
      (Gave_up r, { positions = 0; memo_hits = 0; workers = 1 })

let duplicator_wins ?config ?budget ~pebbles ~rounds a b =
  fst (solve ?config ?budget ~pebbles ~rounds a b)

let equiv_fo_k ?config ?budget ~k ~rank a b =
  duplicator_wins ?config ?budget ~pebbles:k ~rounds:rank a b
