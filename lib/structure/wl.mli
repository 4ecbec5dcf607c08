(** Weisfeiler–Leman colour refinement — the toolbox's single refinement
    layer.

    The 1-dimensional algorithm (classic colour refinement over the
    Gaifman graph) previously lived as private copies inside {!Iso} and
    [Fmtk.Decide]; both now call this module. The k-dimensional
    generalisation refines colours of k-tuples and is the closed-form
    companion of the bijective counting game
    ([Fmtk_games.Counting_game]): by Cai–Fürer–Immerman, k-WL
    equivalence coincides with agreement on C^{k+1} (first-order logic
    with counting quantifiers, k+1 variables). In particular 1-WL = C^2
    and 2-WL = C^3, and {!Gen.cfi_pair} generates witnesses separating
    the levels.

    The 1-dimensional refinement runs over the structure's cached CSR
    Gaifman adjacency ({!Structure.gaifman_csr}) and allocates nothing
    per element. Each round builds every vertex's key — its own colour,
    then its row's colours sorted in place — as a slice of a flat int
    buffer, interns the slices in element order in a {!Slice_tbl}, and
    swaps two colour arrays. A sequential round needs one row-sized
    buffer; a sharded one writes all keys into one buffer laid out like
    the CSR rows before interning them. Interning stays sequential, so
    the returned colours (numbered by first occurrence) are
    byte-identical for every [workers] value. An element's initial colour counts, per
    relation and argument position, the tuples it occurs in, records
    whether each nullary relation holds, and marks the constants naming
    it. Refinement alone is no isomorphism key (Cai–Fürer–Immerman):
    {!Iso.canonical} individualizes too. *)

(** [refine t] — colour refinement of a single structure to
    stabilization. The interned colour ids are only comparable within
    the returned array; they are assigned in element order, so the
    result does not depend on [workers]. [workers] (default 1) shards
    per-round key building by contiguous vertex range over the shared
    domain pool; the budget is polled once per element per round.
    Constants individualize their elements, so a structure whose
    refinement is discrete (all colours distinct) is rigid — the fast
    path of {!Orbit}.
    @raise Fmtk_runtime.Budget.Exhausted when the (default unlimited)
    budget runs out before stabilization. *)
val refine :
  ?workers:int -> ?budget:Fmtk_runtime.Budget.t -> Structure.t -> int array

(** Colour refinement of two structures computed jointly, so colours are
    comparable across them. [workers]/[budget] as in {!refine}. *)
val colors_joint :
  ?workers:int ->
  ?budget:Fmtk_runtime.Budget.t ->
  Structure.t ->
  Structure.t ->
  int array * int array

(** [census_equal1 a b]: the joint 1-WL colour censuses (multisets of
    colours) coincide. A mismatch certifies FO-distinguishability on
    finite structures — counting colour-class sizes is FO-expressible —
    which is how [Fmtk.Decide]'s degradation ladder uses it. *)
val census_equal1 : Structure.t -> Structure.t -> bool

(** [colors_k ~k a b] — joint k-dimensional WL. For [k = 1] this is
    {!colors_joint}; for [k >= 2] the returned arrays colour the [n^k]
    k-tuples of each structure (tuple [(v_0, .., v_{k-1})] at index
    [Σ v_i · n^(k-1-i)]), refined jointly to stabilization. The budget
    is polled once per tuple per round.
    @raise Invalid_argument if [k < 1].
    @raise Fmtk_runtime.Budget.Exhausted when the (default unlimited)
    budget runs out before stabilization. *)
val colors_k :
  ?budget:Fmtk_runtime.Budget.t ->
  k:int ->
  Structure.t ->
  Structure.t ->
  int array * int array

(** [equiv ~k a b]: the joint k-WL colour censuses coincide, i.e. the
    structures are not distinguished by k-WL — equivalently, they agree
    on C^{k+1}. Sound and complete for C^{k+1}-equivalence; sound but
    incomplete for isomorphism and for elementary equivalence. *)
val equiv :
  ?budget:Fmtk_runtime.Budget.t -> k:int -> Structure.t -> Structure.t -> bool
