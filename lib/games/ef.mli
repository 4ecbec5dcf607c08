(** Ehrenfeucht–Fraïssé games (slides 36–43).

    [G_n(A,B)] is the n-round game: the spoiler picks a structure and an
    element, the duplicator answers in the other structure; after [n] rounds
    the duplicator wins iff the chosen pairs form a partial isomorphism.
    The central fact (slide 43): the duplicator has a winning strategy in
    [G_n(A,B)] iff [A ≡n B] (agreement on all sentences of quantifier
    rank ≤ n).

    The solver below decides winning exactly (complete back-and-forth
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

(** Solver configuration. [memo] (default true) caches game positions,
    keyed by round count + the played pairs packed into a flat int array
    (order-insensitive); the ablation bench disables it. [orbit] (default
    true) prunes both spoiler moves and duplicator replies to one
    representative per orbit of the automorphism group's pointwise
    stabilizer of the position ({!Fmtk_structure.Orbit}) — game values
    are invariant under automorphisms fixing the played elements, so
    verdicts are unchanged while symmetric structures (cycles, sets,
    disjoint unions of equal parts) collapse exponentially; rigid
    structures take the near-free rigidity fast path. [parallel] (default
    true) fans the orbit-pruned top-level spoiler moves out across
    domains ([Domain.spawn]) through a work-stealing queue when the game
    is big enough and [Domain.recommended_domain_count () > 1]; workers
    share one sharded, mutex-guarded memo, so they extend rather than
    repeat each other's searches and verdicts are identical to the
    sequential path. [workers] (default [None]) overrides the automatic
    worker count: [Some k] forces a [k]-domain fan-out even on machines
    reporting a single recommended domain (tests use this to exercise the
    parallel path deterministically); [Some 1] forces the sequential
    path. *)
type config = {
  memo : bool;
  parallel : bool;
  workers : int option;
  orbit : bool;
}

val default_config : config

(** Counters of one solve (an equation with {!Engine.stats} — all game
    solvers report through the shared kernel record), returned on
    decided AND on [Gave_up] runs. [positions] is the number of distinct
    game positions expanded (memo misses); [memo_hits] the number of
    searches answered from the memo; [workers] the domains actually
    used. In parallel runs the counters are aggregated atomically across
    workers; position counts can vary slightly run to run because
    workers race to expand the same position. *)
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
    variable [x<i>]). One solve by the kernel's sequential value
    function ({!Engine.Make.sequential}; [parallel] and [workers] do not
    apply), then a walk of the spoiler's winning strategy over its memo:
    the first spoiler move, in the solver's order, that every reply
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
