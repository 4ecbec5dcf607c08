(** A library of closed-form duplicator strategies — the paper (quoting
    [10]) suggests "we build a library of winning strategies for the
    duplicator"; this module is that library, executable.

    Unlike the exact solver in {!Ef} (exponential in the number of rounds),
    a closed-form strategy answers each spoiler move in constant time, so
    it certifies [A ≡n B] for structure sizes far beyond the solver's
    reach. {!verify} plays a strategy against {e every} spoiler line —
    exponential in rounds but with branching only over spoiler moves — and
    is the ground truth used in tests and experiment E5. *)

module Structure = Fmtk_structure.Structure
module Budget = Fmtk_runtime.Budget

(** Which structure the spoiler played in. *)
type side = Left | Right

(** A duplicator strategy: given the rounds still to be played {e after}
    the current one, the position so far, and the spoiler's move (side +
    element), produce the reply element in the other structure. A reply
    outside that structure's domain loses, like one that breaks the
    partial isomorphism.
    @raise Failure if the strategy has no reply (it then loses). *)
type t = rounds_left:int -> (int * int) list -> side -> int -> int

(** [verify ~rounds a b strategy] plays [strategy] against every spoiler
    line of the [rounds]-round game on [(a, b)]. Returns [None] when the
    strategy survives everything (hence [A ≡rounds B] is certified), or
    [Some trace] with a losing spoiler line. Cost: O((|A|+|B|)^rounds) —
    exhaustive certification is for moderate sizes; use {!verify_sampled}
    beyond that.

    [~symmetry:true] (default false) prunes spoiler moves to one
    representative per orbit of the automorphism group's pointwise
    stabilizer of the position ({!Fmtk_structure.Orbit}) — on highly
    symmetric structures (cycles, sets) this collapses the root branching
    factor. A returned trace is always a genuine losing line for
    [strategy]. A [None] still certifies [A ≡rounds B]: game values are
    invariant under automorphisms fixing the position, so surviving every
    representative line proves the duplicator wins the game — though
    [strategy] itself is only guaranteed on the representative lines (off
    them, the winning replies are the automorphic transports). Rigid
    structures make the pruning a no-op at negligible cost.

    @raise Budget.Exhausted when the (default unlimited) [budget] runs
    out before every spoiler line has been played. *)
val verify :
  ?symmetry:bool ->
  ?budget:Budget.t ->
  rounds:int -> Structure.t -> Structure.t -> t -> (side * int) list option

(** [verify_sampled ~rng ~lines ~rounds a b strategy] plays [lines]
    uniformly random spoiler lines. [None] means no losing line was found —
    statistical evidence, not a proof. *)
val verify_sampled :
  rng:Random.State.t ->
  lines:int ->
  rounds:int ->
  Structure.t ->
  Structure.t ->
  t ->
  (side * int) list option

(** {1 The strategies} *)

(** Bare sets (slide 44-45): answer a previously-played element by its
    partner, a fresh element by any fresh element. Wins the n-round game
    whenever both sets have ≥ n elements or equal size. *)
val sets : Structure.t -> Structure.t -> t

(** Linear orders [L_m] vs [L_k] (Theorem 3.1): the classic
    distance-doubling strategy. Preserves order and exact gaps below
    [2^rounds_left]; wins whenever [m = k] or both [m, k ≥ 2^rounds]. *)
val linear_orders : int -> int -> t

(** Successor chains [S_m] vs [S_k] (the paper's remark that "one does not
    even need an order relation: the successor relation would do"): the
    distance-doubling strategy run with doubled thresholds, so that exact
    adjacency (not just order) is preserved through the final round. Wins
    whenever [m = k] or both [≥ 2^(rounds+1)] (verified exhaustively in
    the tests; the exact solver explores the true, smaller thresholds in
    experiment E5). *)
val successor_chains : int -> int -> t

(** Directed cycles [C_m] vs [C_k] — the structures of the Hanf example
    (slide 60). Replies preserve the capped cyclic distance (threshold
    [2^(rounds_left+1)], exact-gap safe like {!successor_chains}) to the
    nearest pebble, or land far from every pebble. Wins whenever [m = k]
    or both [≥ 2^(rounds+2)] (verified exhaustively in tests). *)
val directed_cycles : int -> int -> t

(** Composition over disjoint unions: if [s1] wins on [(a1, b1)] and [s2]
    wins on [(a2, b2)], the composed strategy wins on
    [(a1 ⊎ a2, b1 ⊎ b2)] — routing each move to the component it lands
    in. Sizes are taken from the four component structures. *)
val disjoint_union :
  a1:Structure.t -> b1:Structure.t -> a2:Structure.t -> b2:Structure.t ->
  t -> t -> t

(** {1 Closed forms} *)

(** [sets_equiv ~rounds m k]: duplicator wins the [rounds]-round game on
    bare sets of sizes [m] and [k] — iff [m = k] or [min m k ≥ rounds]. *)
val sets_equiv : rounds:int -> int -> int -> bool

(** [linear_orders_equiv ~rounds m k]: the known exact characterization of
    [L_m ≡n L_k]: [m = k] or both [≥ 2^rounds - 1]. (Theorem 3.1 states
    the weaker sufficient bound [≥ 2^rounds].) Cross-validated against the
    exact solver in the test suite. *)
val linear_orders_equiv : rounds:int -> int -> int -> bool
