(* The k-pebble board — see board.mli. The kernel ({!Engine}) owns memo,
   budget, stats and the parallel fan-out; this module owns the rules. *)

module Structure = Fmtk_structure.Structure
module Iso = Fmtk_structure.Iso
module Wl = Fmtk_structure.Wl
module Orbit = Fmtk_structure.Orbit
module Budget = Fmtk_runtime.Budget

type config = {
  memo : bool;
  parallel : bool;
  workers : int option;
  orbit : bool;
}

let default_config = { memo = true; parallel = true; workers = None; orbit = true }

type ctx = {
  dom_a : int list;
  dom_b : int list;
  colors : (int array * int array) Lazy.t;  (* joint WL; [replies] only *)
  span : int;
  pebbles : int;
  orbit_a : Orbit.t option;
  orbit_b : Orbit.t option;
  (* [Iso.extension_ok a b], resolved in [setup]: it holds built
     indexes, so workers share it read-only. *)
  extension_ok : (int * int) list -> int * int -> bool;
}

(* [packed] is the memo key material (a sorted set, see {!Packed}),
   [pairs] the same pairs as a list for the extension checks, the pair
   just placed first. The orbits may not pin that pair yet: a child
   stores its parent's, and [bases] refines them when it is expanded. *)
type pos = {
  rounds : int;
  packed : Packed.Key.t;
  pairs : (int * int) list;
  oa : Orbit.orbits option;
  ob : Orbit.orbits option;
}

let key _ p = Packed.key ~rounds:p.rounds p.packed

(* Rounds exhausted: the surviving pairs are a partial isomorphism by
   construction, so the duplicator has won. *)
let terminal _ p = if p.rounds = 0 then Some true else None

let setup ~orbit ~budget ~pebbles ~start ~rounds a b =
  if not (Iso.partial_iso a b start) then None
  else begin
    let oracle s = if orbit then Some (Orbit.make ~budget s) else None in
    let orbit_a = oracle a and orbit_b = oracle b in
    let span = max 1 (Structure.size b) in
    let ctx =
      {
        dom_a = Structure.domain a;
        dom_b = Structure.domain b;
        colors = lazy (Wl.colors_joint a b);
        span;
        pebbles;
        orbit_a;
        orbit_b;
        extension_ok = Iso.extension_ok a b;
      }
    in
    let root oracle side =
      Option.map (fun t -> Orbit.refine t (Orbit.root t) (List.map side start)) oracle
    in
    Some
      ( ctx,
        {
          rounds;
          packed = Packed.of_pairs ~span start;
          pairs = start;
          oa = root orbit_a fst;
          ob = root orbit_b snd;
        } )
  end

(* Pin the pair just placed: O(1) on trivial orbits, a no-op when the
   pair is pinned already. *)
let pin oracle orbits x =
  match (oracle, orbits) with
  | Some t, Some o when not (Orbit.trivial o) -> Some (Orbit.refine t o [ x ])
  | _ -> orbits

(* Stabilizer orbits are looked up (cached in the oracle, shared by
   parallel workers) only when a lift shrinks the pinned set. *)
let bases ctx pos =
  if Array.length pos.packed < ctx.pebbles then
    match pos.pairs with
    | [] -> [ pos ]
    | (x, y) :: _ ->
        let oa = pin ctx.orbit_a pos.oa x and ob = pin ctx.orbit_b pos.ob y in
        [ (if oa == pos.oa && ob == pos.ob then pos else { pos with oa; ob }) ]
  else
    List.init (Array.length pos.packed) (fun i ->
        let packed = Packed.remove pos.packed i in
        let lifted (x, y) = (x * ctx.span) + y = pos.packed.(i) in
        let pairs = List.filter (fun xy -> not (lifted xy)) pos.pairs in
        let stabilizer oracle side =
          Option.map (fun t -> Orbit.stabilizer t (List.map side pairs)) oracle
        in
        {
          pos with
          packed;
          pairs;
          oa = stabilizer ctx.orbit_a fst;
          ob = stabilizer ctx.orbit_b snd;
        })

let reps orbits dom = match orbits with Some o -> Orbit.reps o | None -> dom

let moves ctx pos =
  List.concat_map
    (fun base ->
      [ (base, false, reps base.oa ctx.dom_a); (base, true, reps base.ob ctx.dom_b) ])
    (bases ctx pos)

(* Replies whose WL colour matches the spoiler's element come first: the
   good reply is usually found at once, and [List.exists] stops there. *)
let replies ctx base side e =
  let colors_a, colors_b = Lazy.force ctx.colors in
  let own, colors, candidates =
    if side then (colors_b.(e), colors_a, reps base.oa ctx.dom_a)
    else (colors_a.(e), colors_b, reps base.ob ctx.dom_b)
  in
  let matching, rest = List.partition (fun y -> colors.(y) = own) candidates in
  matching @ rest

let pair side e reply = if side then (reply, e) else (e, reply)
let legal ctx base xy = ctx.extension_ok base.pairs xy

let place ctx base ((x, y) as xy) =
  let packed = Packed.insert base.packed ((x * ctx.span) + y) in
  {
    base with
    rounds = base.rounds - 1;
    packed;
    (* A repeated pair collapses: [insert] returns the same set. *)
    pairs = (if packed == base.packed then base.pairs else xy :: base.pairs);
  }

let extend _ base xy = { base with rounds = base.rounds - 1; pairs = xy :: base.pairs }

let answer ctx ~recurse base side e =
  List.exists
    (fun reply ->
      let xy = pair side e reply in
      legal ctx base xy && recurse (place ctx base xy))
    (replies ctx base side e)

module Solver = Engine.Make (struct
  type nonrec ctx = ctx
  type nonrec pos = pos

  let key = key
  let terminal = terminal

  let expand ctx ~recurse pos =
    List.for_all
      (fun (base, side, picks) -> List.for_all (answer ctx ~recurse base side) picks)
      (moves ctx pos)

  let tasks ctx pos =
    List.concat_map
      (fun (base, side, picks) ->
        List.map (fun e ~recurse -> answer ctx ~recurse base side e) picks)
      (moves ctx pos)
end)

let engine_config c =
  { Engine.memo = c.memo; parallel = c.parallel; workers = c.workers }

let sequential ~config ~budget ctx =
  Solver.sequential ~config:(engine_config config) ~budget ctx

let solve_verdict ~config ~budget ~pebbles ~start ~rounds a b =
  match setup ~orbit:config.orbit ~budget ~pebbles ~start ~rounds a b with
  | exception Budget.Exhausted r -> (Engine.Gave_up r, Engine.no_stats)
  | None -> (Engine.Distinguished, Engine.no_stats)
  | Some (ctx, root) ->
      (* Forced before the fan-out: domains must not race on a lazy. *)
      ignore (Lazy.force ctx.colors);
      Solver.solve_verdict ~config:(engine_config config) ~budget
        ~depth_hint:rounds
        ~width:(Structure.size a + Structure.size b)
        ctx root
