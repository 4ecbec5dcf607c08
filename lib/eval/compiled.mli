(** Compile-then-run evaluation of FO, FO(Cnt) and FO(IFP).

    {!Eval.holds} walks the formula AST on every evaluation step, resolves
    variables through an association list, and probes relations through
    [SMap.find] plus a tuple-set search — per atom, per assignment. This
    module instead compiles a {!Formula.t} {e once} against a fixed
    structure into a tree of closures over slot-numbered variables: the
    environment is a single int array, free-variable and binder slots are
    resolved at compile time, constants are interpreted at compile time,
    and every relational atom holds its relation's O(1) membership index
    ({!Fmtk_structure.Index}) with an arity-specialized allocation-free
    probe. A counting quantifier [∃^{≥k}x] compiles to a bounded witness
    scan over its own binder slot.

    {b Guarded quantifiers.} A quantifier scans [0..n-1] unless its body
    has a {e guard}: a conjunct [R(t,x)] or [R(x,t)] on a binary
    structure relation [R] (not a fixpoint stage), where [x] is the
    binder and [t] is a constant or a variable bound outside the
    quantifier. [∃x φ] and [∃^{≥k}x φ] take the guard from [φ]'s
    conjuncts, [∀x (φ → ψ)] from [φ]'s, and the leftmost guard wins.
    [R(x,x)] and wrong-arity atoms are never guards. A guarded binder
    walks the forward row of [t]'s value (for [R(t,x)]) or its reverse
    row (for [R(x,t)]), O(degree) instead of O(n); [∃^{≥k}] also stops
    once the rest of the row cannot supply the missing witnesses. An
    out-of-domain value of [t] (reachable only through unchecked
    {!run}/{!holds} arguments) has an empty row, so the answer is the
    domain scan's. Rows are built once per compiled formula, ascending
    and duplicate-free, in O(n + m): the forward rows of a CSR-backed
    relation are its CSR ({!Fmtk_structure.Index.rows}), not a copy,
    those of a set-backed one are filled from its sorted tuple set, and
    reverse rows are forward rows transposed. Only a body with
    no fixpoint node is guarded (stage atoms are fine): FO closures
    neither count nor poll, so skipping non-neighbours and moving the
    guard out of the body change only the speed. Counters, polling and
    the fixpoint caches are exactly as for a domain scan.

    A fixpoint [[IFP_{R,x̄} φ](t̄)] of arity [k] gets a {e stage cell}: a
    [Bytes] flag per tuple of the [n^k] tuples, indexed by the tuple's
    mixed-radix code (its position in {!Fmtk_structure.Tuple.all} order).
    Relation names resolve at compile time through a second scope, so an
    atom on a stage relation — which shadows a structure relation of the
    same name — is a probe into that cell. The stage loop is
    {!Eval}'s: from [S_0 = ∅], each stage tests every code in order (the
    body is skipped for members of [S_i]) and applies its additions once
    the stage is over; the last, empty stage counts too. A fixpoint
    outside every other fixpoint's body is cached on the values of its
    body's outer free variables, and structurally equal nodes share the
    cache; it lives for one entry-point call ({!run}, {!holds}, {!sat},
    one {!definable_relation_of} enumeration). Hence [stages] and
    [tuples_tested] equal {!Eval}'s on every formula. Set and relation
    quantifiers are refused.

    Only fixpoints count and poll: each stage adds one to [stats.stages],
    each candidate code one to [stats.tuples_tested] after one
    {!Fmtk_runtime.Budget.check}. No other {!Eval.stats} field is filled,
    and a formula without a fixpoint runs with no counting, polling or
    cache work. A fixpoint cut short by {!Fmtk_runtime.Budget.Exhausted}
    leaves no cache entry. {!Eval} remains the differential-testing
    oracle; experiments E20 and E23 measure the gap.

    A compiled formula reuses internal scratch buffers, so a single [t]
    must not be run from several domains at once — compile per domain
    instead. *)

module Formula = Fmtk_logic.Formula
module Structure = Fmtk_structure.Structure

type t

(** [compile a f] compiles [f] for evaluation on [a]. Free variables get
    argument slots in {!Formula.free_vars} order.
    @raise Invalid_argument if [f] mentions a relation or constant not
    interpreted by [a], has a second-order node, uses a fixpoint
    relation at the wrong arity, has a fixpoint whose binder list repeats
    a variable, or has one of arity [k] whose [n^k] stage cells do not
    fit a [Bytes]. *)
val compile : Structure.t -> Formula.t -> t

(** Like {!compile} with an explicit argument-slot order; [vars] must
    cover the free variables (extra names get unconstrained slots), as in
    {!Eval.definable_relation}.
    @raise Invalid_argument also if a name repeats in [vars]. *)
val compile_with : Structure.t -> vars:string list -> Formula.t -> t

(** Free variables in argument-slot order. *)
val free_vars : t -> string list

(** The structure the formula was compiled against. *)
val structure : t -> Structure.t

(** [run t args] evaluates with [args.(i)] assigned to the [i]-th free
    variable (see {!free_vars}).
    @raise Invalid_argument on an argument-count mismatch. *)
val run : t -> int array -> bool

(** Named-environment convenience around {!run}.
    @raise Invalid_argument if a free variable is missing from [env]. *)
val holds : t -> env:(string * int) list -> bool

(** One-shot [compile]+[run] for sentences — same contract as
    {!Eval.sat}; [stats] and [budget] as in the module header. *)
val sat :
  ?stats:Eval.stats ->
  ?budget:Fmtk_runtime.Budget.t ->
  Structure.t ->
  Formula.t ->
  bool

(** Answer set of an already-compiled query: all tuples (in slot order)
    satisfying it — the [n^k] enumeration reuses one environment array
    and one fixpoint cache. *)
val definable_relation_of : t -> Fmtk_structure.Tuple.Set.t

(** [definable_relation a f ~vars] — as {!Eval.definable_relation}, via
    compilation; [stats] and [budget] as in the module header.
    @raise Invalid_argument if a name repeats in [vars]. *)
val definable_relation :
  ?stats:Eval.stats ->
  ?budget:Fmtk_runtime.Budget.t ->
  Structure.t ->
  Formula.t ->
  vars:string list ->
  Fmtk_structure.Tuple.Set.t

(** [answers a f] — as {!Eval.answers}, via compilation. *)
val answers : Structure.t -> Formula.t -> string list * Fmtk_structure.Tuple.Set.t
