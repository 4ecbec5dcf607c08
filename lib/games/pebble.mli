(** k-pebble games: the Ehrenfeucht–Fraïssé game for the finite-variable
    fragment FO^k.

    Each player owns [k] pebble pairs; in each round the spoiler picks a
    pebble (possibly one already on the board, moving it) and places it on
    an element of one structure, and the duplicator places the twin pebble
    in the other structure. The duplicator survives a round if the pebbled
    pairs form a partial isomorphism. Duplicator wins the [rounds]-round
    game iff the structures agree on all FO^k sentences of quantifier rank
    ≤ rounds.

    The solver is the games' one board ({!Board}) from the empty
    position — {!Ef} plays it with a pebble per round — on the generic
    kernel ({!Engine}): packed-key memo, orbit pruning, parallel fan-out,
    stats and three-valued verdicts. The spoiler lifts a pebble only
    when none is free, which keeps every verdict (winning positions are
    closed under subsets) and shrinks sequential searches (C_12 vs
    C_6 ⊎ C_6, 3 pebbles, 5 rounds: 100 → 69 positions; parallel ones
    can grow, see {!Engine.stats}); orbits are refined lazily and
    stabilizers looked up only on a lift. *)

module Structure = Fmtk_structure.Structure
module Budget = Fmtk_runtime.Budget

(** Solver configuration, the board's ({!Board.config}). *)
type config = Ef.config = {
  memo : bool;
  parallel : bool;
  workers : int option;
  orbit : bool;
}

(** = {!Ef.default_config}: everything on, automatic worker count. *)
val default_config : config

(** Counters of one solve (= {!Engine.stats}). *)
type stats = Engine.stats = {
  positions : int;
  memo_hits : int;
  workers : int;
}

(** Three-valued outcome of a budgeted solve (= {!Engine.verdict});
    see {!Ef.verdict}. *)
type verdict = Engine.verdict =
  | Equivalent
  | Distinguished
  | Gave_up of Budget.reason

(** [solve ~pebbles ~rounds a b] decides the game exactly (memoized
    search; exponential in [rounds], use on small instances) and returns
    the verdict together with the solve's {!stats}.
    @raise Budget.Exhausted when the (default unlimited) [budget] runs
    out before the game is decided; the parallel path joins every
    spawned domain first. Use {!solve_verdict} for an exception-free
    interface. *)
val solve :
  ?config:config ->
  ?budget:Budget.t ->
  pebbles:int -> rounds:int -> Structure.t -> Structure.t -> bool * stats

(** Exception-free variant of {!solve}: budget exhaustion becomes
    [Gave_up] and the stats record still reports the positions explored
    before the search stopped. *)
val solve_verdict :
  ?config:config ->
  ?budget:Budget.t ->
  pebbles:int -> rounds:int -> Structure.t -> Structure.t -> verdict * stats

(** [duplicator_wins ~pebbles ~rounds a b] — the bare verdict of
    {!solve}.
    @raise Budget.Exhausted when the budget runs out. *)
val duplicator_wins :
  ?config:config ->
  ?budget:Budget.t ->
  pebbles:int -> rounds:int -> Structure.t -> Structure.t -> bool
