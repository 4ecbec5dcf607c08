(** The one set of game rules: the k-pebble board (§3.2's games as one
    method). A position is a set of pebbled pairs and the rounds left; in
    a round the spoiler picks a pebble and places it on an element of
    either structure, the duplicator places its twin in the other, and
    she survives while the pairs form a partial isomorphism. {!Pebble}
    plays from the empty position; {!Ef} from [start] with
    [List.length start + rounds] pebbles, so one is always free (the
    n-round EF game is the n-round k-pebble game once k ≥ n);
    {!Counting_game} plays its bijection round from the {!bases}.

    {b Lift rule.} The spoiler lifts a pebble only when none is free.
    The duplicator's winning positions are closed under subsets (from a
    subset she plays as from the full set, with ghost pebbles), and
    lifting a pair before placing a free pebble reaches a subset of what
    placing alone reaches, answered by the same reply; so verdicts are
    those of the game where any pebble may move at any time, and
    sequential searches only shrink (a parallel one may grow, see
    {!Engine.stats}).

    {b Lazy orbits.} With [orbit] on, moves and replies range over one
    representative per orbit of each side's automorphisms fixing the
    pebbled elements ({!Fmtk_structure.Orbit}). A position stores its
    parent's orbits; the pair just placed is pinned when the position
    is expanded (O(1) once the orbits are trivial, never at terminal or
    memoized positions), and {!Fmtk_structure.Orbit.stabilizer} is
    consulted only on a lift. *)

module Structure = Fmtk_structure.Structure
module Budget = Fmtk_runtime.Budget

(** Solver configuration of every game on the board ({!Ef.config},
    {!Pebble.config}). [memo] caches positions under packed keys (round
    count + sorted pebbled pairs; the ablation bench turns it off).
    [orbit] prunes spoiler moves and duplicator replies to one
    representative per orbit of the stabilizer of the base a move starts
    from ({!Fmtk_structure.Orbit}); game values are invariant under
    automorphisms fixing the pebbled elements, so verdicts are unchanged
    while symmetric structures collapse and rigid ones take a near-free
    fast path. [parallel] fans the spoiler's moves out across pooled
    domains when the game is big enough ({!Engine}); [workers] overrides
    the automatic worker count ([Some 1] forces the sequential path,
    [Some k] a [k]-domain fan-out on any machine). *)
type config = {
  memo : bool;
  parallel : bool;
  workers : int option;
  orbit : bool;
}

val default_config : config

type ctx
type pos

(** [setup ~orbit ~budget ~pebbles ~start ~rounds a b] is the board and
    its root position [start], or [None] when [start] is not a partial
    isomorphism. Callers check [rounds >= 0], [start] inside both
    domains, and a free pebble while rounds remain.
    @raise Invalid_argument as {!Fmtk_structure.Iso.joint_signature}.
    @raise Budget.Exhausted while building the orbit oracles. *)
val setup :
  orbit:bool ->
  budget:Budget.t ->
  pebbles:int ->
  start:(int * int) list ->
  rounds:int ->
  Structure.t ->
  Structure.t ->
  (ctx * pos) option

(** The positions a spoiler move starts from, orbits refined: the
    position itself while a pebble is free, else each one-pair lift. *)
val bases : ctx -> pos -> pos list

(** The spoiler's moves, in the order every solver tries them: per base,
    [(base, false, elements of a)] then [(base, true, elements of b)],
    one per orbit. *)
val moves : ctx -> pos -> (pos * bool * int list) list

(** [replies ctx base in_b e] — the duplicator's answers in the other
    structure, one per orbit, those of [e]'s colour first. [pair in_b e
    reply] is the pebbled pair, [a]'s element first. *)
val replies : ctx -> pos -> bool -> int -> int list

val pair : bool -> int -> int -> int * int

(** [legal ctx base xy] — pebbling [xy] on [base] keeps a partial
    isomorphism; [place ctx base xy] is the resulting position. *)
val legal : ctx -> pos -> int * int -> bool

val place : ctx -> pos -> int * int -> pos

(** [place] without the memo key, for lines of play that read no memo
    and, with a pebble per round, never lift ({!Strategy}): [key] and
    lifts on the result are meaningless. *)
val extend : ctx -> pos -> int * int -> pos

(** [answer ctx ~recurse base in_b e] — some legal reply to the move
    wins, [recurse] deciding the child positions. *)
val answer : ctx -> recurse:(pos -> bool) -> pos -> bool -> int -> bool

(** Memo key and terminal test of every game on the board. *)
val key : ctx -> pos -> Packed.Key.t

val terminal : ctx -> pos -> bool option

(** The pebble game's {!Engine.Make.sequential} value function. *)
val sequential :
  config:config -> budget:Budget.t -> ctx -> (pos -> bool) * (unit -> Engine.stats)

(** Sets up and decides the pebble game; budget exhaustion in the setup
    is [Gave_up] too. *)
val solve_verdict :
  config:config ->
  budget:Budget.t ->
  pebbles:int ->
  start:(int * int) list ->
  rounds:int ->
  Structure.t ->
  Structure.t ->
  Engine.verdict * Engine.stats
