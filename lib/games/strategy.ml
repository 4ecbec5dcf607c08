module Structure = Fmtk_structure.Structure
module Budget = Fmtk_runtime.Budget

type side = Left | Right
type t = rounds_left:int -> (int * int) list -> side -> int -> int

(* The first line [strategy] loses on the EF game's board: [spoiler pos
   play] plays the spoiler's moves at [pos] through [play base in_b e]
   until one returns a losing line. A line reads no memo, so it extends
   positions without their keys. The strategy is promised the pairs in
   play order, which the board's set does not keep: they are carried
   newest-first (O(1) extension) and reversed for each call. *)
let first_loss ~poller ~rounds ~spoiler ctx root strategy =
  let rec go r pos rev_pairs trace =
    if r = 0 then None
    else
      let pairs = List.rev rev_pairs in
      spoiler pos (fun base in_b e ->
          Budget.check poller;
          let side = if in_b then Right else Left in
          let trace = (side, e) :: trace in
          match strategy ~rounds_left:(r - 1) pairs side e with
          | exception _ -> Some (List.rev trace)
          | reply ->
              let xy = Board.pair in_b e reply in
              if Board.legal ctx base xy then
                go (r - 1) (Board.extend ctx base xy) (xy :: rev_pairs) trace
              else Some (List.rev trace))
  in
  go rounds root [] []

let verify ?(symmetry = false) ?(budget = Budget.unlimited) ~rounds a b
    strategy =
  (* Symmetry pruning is the board's; the mli says what [None] means then. *)
  match Board.setup ~orbit:symmetry ~budget ~pebbles:rounds ~start:[] ~rounds a b with
  | None -> Some []
  | Some (ctx, root) ->
      let spoiler pos play =
        List.find_map
          (fun (base, in_b, picks) -> List.find_map (play base in_b) picks)
          (Board.moves ctx pos)
      in
      first_loss ~poller:(Budget.poller budget) ~rounds ~spoiler ctx root strategy

let verify_sampled ~rng ~lines ~rounds a b strategy =
  let budget = Budget.unlimited in
  match Board.setup ~orbit:false ~budget ~pebbles:rounds ~start:[] ~rounds a b with
  | None -> Some []
  | Some (ctx, root) ->
      let na = Structure.size a and nb = Structure.size b in
      (* One uniformly random spoiler move per position. *)
      let spoiler pos play =
        let i = Random.State.int rng (na + nb) in
        if i < na then play pos false i else play pos true (i - na)
      in
      let poller = Budget.poller budget in
      let rec attempt i =
        if i >= lines then None
        else
          match first_loss ~poller ~rounds ~spoiler ctx root strategy with
          | None -> attempt (i + 1)
          | loss -> loss
      in
      attempt 0

(* ---- Bare sets ---- *)

let sets a b ~rounds_left:_ pairs side e =
  let from, into =
    match side with
    | Left -> (List.map fst pairs, List.map snd pairs)
    | Right -> (List.map snd pairs, List.map fst pairs)
  in
  match List.assoc_opt e (List.combine from into) with
  | Some partner -> partner
  | None ->
      let other = match side with Left -> b | Right -> a in
      let fresh =
        List.find_opt
          (fun y -> not (List.mem y into))
          (Structure.domain other)
      in
      (match fresh with
      | Some y -> y
      | None -> failwith "Strategy.sets: no fresh element left")

let sets_equiv ~rounds m k = m = k || (m >= rounds && k >= rounds)

(* ---- Linear orders ---- *)

(* The distance-doubling strategy. Invariant after each round with r rounds
   left: pebbles (with virtual pebbles at -1/-1 and m/k) are order-
   isomorphic, and each pair of adjacent gaps is either equal or both
   > 2^r. *)
let linear_orders m k ~rounds_left pairs side e =
  if m = k then e (* identity is a winning strategy between equal orders *)
  else
    let h = 1 lsl rounds_left in
    (* Orient so the spoiler played in the "source" order of size sm. *)
    let src_pairs, tgt_size =
      match side with
      | Left -> (pairs, k)
      | Right -> (List.map (fun (x, y) -> (y, x)) pairs, m)
    in
    let src_size = match side with Left -> m | Right -> k in
    match List.assoc_opt e src_pairs with
    | Some partner -> partner
    | None ->
        let vpairs = ((-1), -1) :: (src_size, tgt_size) :: src_pairs in
        let below =
          List.filter (fun (x, _) -> x < e) vpairs
          |> List.fold_left (fun acc p -> match acc with
                 | None -> Some p
                 | Some (bx, _) when fst p > bx -> Some p
                 | Some _ -> acc)
               None
        in
        let above =
          List.filter (fun (x, _) -> x > e) vpairs
          |> List.fold_left (fun acc p -> match acc with
                 | None -> Some p
                 | Some (ax, _) when fst p < ax -> Some p
                 | Some _ -> acc)
               None
        in
        let (a_lo, b_lo), (a_hi, b_hi) =
          match (below, above) with
          | Some lo, Some hi -> (lo, hi)
          | _ -> failwith "Strategy.linear_orders: element outside order"
        in
        let d_lo = e - a_lo and d_hi = a_hi - e in
        let y =
          if d_lo <= h then b_lo + d_lo
          else if d_hi <= h then b_hi - d_hi
          else if b_hi - b_lo > 2 * h then b_lo + h + 1
          else (b_lo + b_hi) / 2
        in
        if y <= b_lo || y >= b_hi then
          failwith "Strategy.linear_orders: no room for reply"
        else y

(* Successor atoms need exact gaps: E(x,y) iff the gap is exactly 1, and
   the order strategy only protects gaps below 2^rounds_left — enough for
   order atoms but not for adjacency on the last round (a gap of 1 next to
   a pebble can be answered by a gap of 2). Running the order strategy one
   round "ahead" doubles every threshold, so by the final round all pebble
   gaps are equal or both ≥ 2, which preserves adjacency exactly. The
   price is the doubled size requirement m, k ≥ 2^(rounds+1). *)
let successor_chains m k ~rounds_left pairs side e =
  linear_orders m k ~rounds_left:(rounds_left + 1) pairs side e

(* Directed cycles: preserve the capped cyclic offset to the nearest
   pebble. Thresholds are doubled (as for successor chains) so exact
   adjacency survives the final round. *)
let directed_cycles m k ~rounds_left pairs side e =
  if m = k then e
  else
    let h = 1 lsl (rounds_left + 1) in
    let src_pairs, src_n, tgt_n =
      match side with
      | Left -> (pairs, m, k)
      | Right -> (List.map (fun (x, y) -> (y, x)) pairs, k, m)
    in
    match List.assoc_opt e src_pairs with
    | Some partner -> partner
    | None -> (
        let cw n a b = ((b - a) mod n + n) mod n in
        match src_pairs with
        | [] -> if e < tgt_n then e else e mod tgt_n
        | _ ->
            (* Nearest pebble in either rotational direction. *)
            let best =
              List.fold_left
                (fun acc (a, b) ->
                  let d = min (cw src_n a e) (cw src_n e a) in
                  match acc with
                  | Some (_, _, d') when d' <= d -> acc
                  | _ -> Some (a, b, d))
                None src_pairs
            in
            let a, b, _ = Option.get best in
            if cw src_n a e <= h then (b + cw src_n a e) mod tgt_n
            else if cw src_n e a <= h then
              ((b - cw src_n e a) mod tgt_n + tgt_n) mod tgt_n
            else
              (* Far from everything: reply far from every target pebble. *)
              let score y =
                List.fold_left
                  (fun acc (_, b') ->
                    min acc (min (cw tgt_n b' y) (cw tgt_n y b')))
                  max_int src_pairs
              in
              let rec best_y y best best_score =
                if y >= tgt_n then best
                else
                  let s = score y in
                  if s > best_score then best_y (y + 1) y s
                  else best_y (y + 1) best best_score
              in
              let y = best_y 0 0 (-1) in
              if score y <= h then
                failwith "Strategy.directed_cycles: no room far from pebbles"
              else y)

let linear_orders_equiv ~rounds m k =
  m = k || (m >= (1 lsl rounds) - 1 && k >= (1 lsl rounds) - 1)

(* ---- Disjoint-union composition ---- *)

let disjoint_union ~a1 ~b1 ~a2 ~b2 s1 s2 ~rounds_left pairs side e =
  let na1 = Structure.size a1 and nb1 = Structure.size b1 in
  ignore a2;
  ignore b2;
  let pairs1 = List.filter (fun (x, _) -> x < na1) pairs in
  let pairs2 =
    List.filter_map
      (fun (x, y) -> if x >= na1 then Some (x - na1, y - nb1) else None)
      pairs
  in
  match side with
  | Left ->
      if e < na1 then s1 ~rounds_left pairs1 Left e
      else s2 ~rounds_left pairs2 Left (e - na1) + nb1
  | Right ->
      if e < nb1 then s1 ~rounds_left pairs1 Right e
      else s2 ~rounds_left pairs2 Right (e - nb1) + na1
