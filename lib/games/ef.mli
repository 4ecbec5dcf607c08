(** Ehrenfeucht–Fraïssé games (slides 36–43).

    [G_n(A,B)] is the n-round game: the spoiler picks a structure and an
    element, the duplicator answers in the other structure; after [n] rounds
    the duplicator wins iff the chosen pairs form a partial isomorphism.
    The central fact (slide 43): the duplicator has a winning strategy in
    [G_n(A,B)] iff [A ≡n B] (agreement on all sentences of quantifier
    rank ≤ n).

    The n-round EF game is the n-round k-pebble game once k ≥ n, so it
    is solved on the games' one board ({!Board}) with a pebble per
    [start] pair and round: one is always free, the lift rule never
    fires, and the search is EF's own, orbits refined lazily.

    The solver decides winning exactly (complete back-and-forth
    search) and is exponential in [n] — use it for the small instances
    where the paper's proofs need certification, and the closed-form
    strategies of {!Strategy} for unbounded parameters. Pass a
    {!Fmtk_runtime.Budget.t} to bound the search: the solver polls it
    once per visited position (amortized — see the budget docs), so
    deadlines, fuel limits and cross-domain cancellation all take effect
    within one poll interval. {!certify} also reads a separating sentence
    off the solve's memo. *)

module Structure = Fmtk_structure.Structure
module Budget = Fmtk_runtime.Budget

(** Solver configuration, the board's ({!Board.config}). *)
type config = Board.config = {
  memo : bool;
  parallel : bool;
  workers : int option;
  orbit : bool;
}

(** Everything on, automatic worker count. *)
val default_config : config

(** Counters of one solve, returned on decided AND on [Gave_up] runs
    (= {!Engine.stats}, which says how parallel runs count). *)
type stats = Engine.stats = {
  positions : int;
  memo_hits : int;
  workers : int;
}

(** Three-valued outcome of a budgeted solve (= {!Engine.verdict}).
    [Gave_up r] means the budget ran out for reason [r] before the game
    was decided — never a wrong answer, only an absent one. *)
type verdict = Engine.verdict =
  | Equivalent
  | Distinguished
  | Gave_up of Budget.reason

(** [solve ?config ?budget ?start ~rounds a b] decides the
    [rounds]-round game starting from the (default empty) position
    [start] and returns the verdict together with the solve's {!stats}.
    Returns [false] if [start] is not a partial isomorphism.
    @raise Invalid_argument naming a [start] element outside its
    structure's domain, or as {!Fmtk_structure.Iso.joint_signature}.

    @raise Budget.Exhausted when the (default unlimited) budget runs out
    before the game is decided. The parallel path joins every spawned
    domain before re-raising, so no domain is leaked and the shared memo
    holds only completed (hence correct) entries. Use {!solve_verdict}
    for an exception-free interface. *)
val solve :
  ?config:config ->
  ?budget:Budget.t ->
  ?start:(int * int) list ->
  rounds:int ->
  Structure.t ->
  Structure.t ->
  bool * stats

(** Variant of {!solve} free of budget exceptions: exhaustion becomes
    [Gave_up] and the stats record still reports the positions explored
    before the search stopped. [Invalid_argument] is raised as by
    {!solve}. *)
val solve_verdict :
  ?config:config ->
  ?budget:Budget.t ->
  ?start:(int * int) list ->
  rounds:int ->
  Structure.t ->
  Structure.t ->
  verdict * stats

(** [certify ?config ?budget ?start ~rounds a b] is {!solve_verdict}
    plus, when the spoiler wins, a formula [φ] of rank ≤ [rounds] with
    [A ⊨ φ(ā)] and [B ⊭ φ(b̄)] (pebble pair [i] of [start] is the free
    variable [x<i>]). One solve by the board's sequential value
    function ({!Board.sequential}; [parallel] and [workers] do not
    apply), then a walk of the spoiler's winning strategy over its memo:
    the first spoiler move, in the board's order, that every reply
    loses gives [∃x ⋀ψ] (in [A]) or [∀x ⋁ψ] (in [B]), one [ψ] per
    orbit-representative reply (automorphic replies falsify the same
    formulas), a rank-0 literal where a reply breaks the partial
    isomorphism, or where [start] already does. Every formula is checked
    by {!Fmtk_eval.Compiled} — [A ⊨ φ(ā)], [B ⊭ φ(b̄)], rank ≤ [rounds]
    — so a bad walk raises [Failure] instead of answering. The formula
    is [None] unless [Distinguished], and then only if the budget ran
    out in the walk; the stats are the solve's.
    @raise Invalid_argument as {!solve}. *)
val certify :
  ?config:config ->
  ?budget:Budget.t ->
  ?start:(int * int) list ->
  rounds:int ->
  Structure.t ->
  Structure.t ->
  verdict * Fmtk_logic.Formula.t option * stats

(** [duplicator_wins ?config ~rounds a b] decides whether the duplicator
    has a winning strategy in the [rounds]-round EF game on [(a, b)],
    starting from the empty position (constants act as pre-played pebbles).
    @raise Budget.Exhausted when [budget] runs out. *)
val duplicator_wins :
  ?config:config ->
  ?budget:Budget.t ->
  rounds:int ->
  Structure.t ->
  Structure.t ->
  bool
