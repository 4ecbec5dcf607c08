(** The bijective k-pebble counting game (Immerman–Lander; Hella) — the
    Ehrenfeucht–Fraïssé game of the counting logic C^k.

    The board is the k-pebble board of every game here ({!Board}; its
    lift rule is sound here too, a bijection winning from a position
    winning from its subsets); a round differs from {!Pebble}'s in who
    commits first. The spoiler picks a pebble pair; the duplicator
    must then exhibit a {e bijection} [f : A → B] (if none exists —
    different sizes — the duplicator loses immediately, which is how the
    game "counts"); the spoiler places the pebble on any [a ∈ A], its
    twin landing on [f a]; the duplicator survives if the pebbled pairs
    form a partial isomorphism. The duplicator wins the [rounds]-round
    game iff [A] and [B] agree on all C^k sentences of quantifier rank
    ≤ [rounds] (counting quantifiers [∃^{≥i}], at most [k] variables).

    The solver decides the bijection move as a perfect-matching problem
    over the "good pairs" bipartite graph (Kuhn's algorithm): because
    the per-element requirements are independent, a bijection witnessing
    the round exists iff every element has a system of distinct
    admissible images. It runs on the generic kernel ({!Engine}), so
    memoized positions, budget polling, stats and three-valued verdicts
    are shared with {!Ef} and {!Pebble}.

    Closed-form companion: by Cai–Fürer–Immerman, unbounded-rank C^k
    equivalence is exactly (k-1)-WL equivalence —
    [Fmtk_structure.Wl.equiv ~k:(k-1)] decides in polynomial time what
    this game decides rank by rank, and [Fmtk_structure.Gen.cfi_pair]
    generates witnesses separating C^2 from C^3. *)

module Structure = Fmtk_structure.Structure
module Budget = Fmtk_runtime.Budget

(** Solver configuration — exactly the kernel's ({!Engine.config}):
    unlike {!Ef} and {!Pebble} there is no [orbit] field, because orbit
    pruning is unsound for the bijection move (the duplicator's
    bijection must cover every element, not one representative per
    orbit), and no parallelism engages (the root is a single matching
    obligation). *)
type config = Engine.config = {
  memo : bool;
  parallel : bool;
  workers : int option;
}

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

(** [solve ~pebbles ~rounds a b] decides the game exactly. Exponential
    in [rounds] with a matching per position — use on small instances;
    {!Fmtk_structure.Wl} is the polynomial-time route to unbounded rank.
    @raise Budget.Exhausted when the (default unlimited) [budget] runs
    out before the game is decided. *)
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

(** [equiv_ck ~k ~rank a b]: agreement on C^k up to quantifier rank
    [rank] — [duplicator_wins ~pebbles:k ~rounds:rank]. *)
val equiv_ck :
  ?config:config ->
  ?budget:Budget.t ->
  k:int -> rank:int -> Structure.t -> Structure.t -> bool
