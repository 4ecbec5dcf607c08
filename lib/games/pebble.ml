(* The k-pebble game: the board ({!Board}) played from the empty
   position — see pebble.mli. *)

module Structure = Fmtk_structure.Structure
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

let solve_verdict ?(config = default_config) ?(budget = Budget.unlimited)
    ~pebbles ~rounds a b =
  if pebbles <= 0 then invalid_arg "Pebble: need at least one pebble";
  if rounds < 0 then invalid_arg "Pebble: negative round count";
  Board.solve_verdict ~config ~budget ~pebbles ~start:[] ~rounds a b

let solve ?config ?budget ~pebbles ~rounds a b =
  match solve_verdict ?config ?budget ~pebbles ~rounds a b with
  | Gave_up r, _ -> raise (Budget.Exhausted r)
  | verdict, stats -> (verdict = Equivalent, stats)

let duplicator_wins ?config ?budget ~pebbles ~rounds a b =
  fst (solve ?config ?budget ~pebbles ~rounds a b)
