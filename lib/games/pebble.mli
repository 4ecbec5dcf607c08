(** k-pebble games: the Ehrenfeucht–Fraïssé game for the finite-variable
    fragment FO^k.

    Each player owns [k] pebble pairs; in each round the spoiler picks a
    pebble (possibly one already on the board, moving it) and places it on
    an element of one structure, and the duplicator places the twin pebble
    in the other structure. The duplicator survives a round if the pebbled
    pairs form a partial isomorphism. Duplicator wins the [rounds]-round
    game iff the structures agree on all FO^k sentences of quantifier rank
    ≤ rounds.

    The solver is an instance of the generic game kernel ({!Engine}), so
    it shares the EF solver's surface: memoization under packed keys,
    orbit pruning, a parallel root fan-out, solve stats and three-valued
    budgeted verdicts. *)

module Structure = Fmtk_structure.Structure
module Budget = Fmtk_runtime.Budget

(** Solver configuration: {!Ef.config}, read the same way. [memo]
    caches positions under packed int-array keys (round count + sorted
    packed pairs); [orbit] prunes spoiler moves and duplicator replies to
    representatives of the stabilizer orbits of the base position
    ({!Fmtk_structure.Orbit}); [parallel] fans the root spoiler-move
    obligations out across domains through the kernel's work-stealing
    queue, workers sharing one sharded memo; [workers] overrides the
    automatic worker count ([Some 1] forces the sequential path). *)
type config = Ef.config = {
  memo : bool;
  parallel : bool;
  workers : int option;
  orbit : bool;
}

(** = {!Ef.default_config}: everything on, automatic worker count. *)
val default_config : config

(** Counters of one solve (= {!Engine.stats}); see {!Ef.stats}. *)
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
