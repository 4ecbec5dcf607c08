(** Compilation of first-order queries to relational algebra.

    This implements the classical equivalence behind "FOL as a query
    language": every FO formula translates to an algebra expression over the
    database view of a structure. Because the instance's {!Algebra.adom}
    table holds the {e whole} domain, the compiled query agrees exactly with
    the natural (Tarski) semantics implemented by {!Fmtk_eval.Eval} — this
    is cross-checked by tests and experiment E6.

    Evaluation goes through the {!Planner}/{!Physical} pipeline. The
    default entry points [answers]/[sat] additionally {e refuse} queries
    that are not safe-range ({!safe_range}) — the textbook guarantee of
    domain independence; the [_any] variants evaluate any formula under
    the adom-padded semantics.

    Every entry point refuses a formula with an extension node (counting,
    fixpoint or second-order): {!compile} and {!answers_naive} raise
    [Invalid_argument], the planned entry points return [`Msg], and
    {!safe_range} is false on it. *)

module Formula = Fmtk_logic.Formula

(** [compile f] produces an expression whose attributes are the free
    variables of [f] (a sentence compiles to a nullary relation: nonempty =
    true).
    @raise Invalid_argument on formulas mentioning arity-inconsistent
    relations. *)
val compile : Formula.t -> Algebra.expr

(** [answers s f] plans and executes the compiled query against [s];
    returns the free variables (in {!Formula.free_vars} order) and the
    answer tuples. Refuses non-safe-range queries with [`Msg]. The ambient
    budget governs execution ([Budget.Exhausted] escapes, never a wrong
    answer). *)
val answers :
  ?budget:Fmtk_runtime.Budget.t ->
  Fmtk_structure.Structure.t ->
  Formula.t ->
  ( string list * Fmtk_structure.Tuple.Set.t,
    [> `Msg of string ] )
  result

(** [sat s f] for sentences: true iff the compiled nullary answer is
    nonempty. Refuses non-sentences and non-safe-range sentences. *)
val sat :
  ?budget:Fmtk_runtime.Budget.t ->
  Fmtk_structure.Structure.t ->
  Formula.t ->
  (bool, [> `Msg of string ]) result

(** Like {!answers} but without the safe-range gate: any formula, under
    the active-domain-padded semantics (which agrees with Tarski semantics
    because {!Algebra.adom} holds the whole domain). *)
val answers_any :
  ?budget:Fmtk_runtime.Budget.t ->
  Fmtk_structure.Structure.t ->
  Formula.t ->
  ( string list * Fmtk_structure.Tuple.Set.t,
    [> `Msg of string ] )
  result

(** Like {!sat} but without the safe-range gate. *)
val sat_any :
  ?budget:Fmtk_runtime.Budget.t ->
  Fmtk_structure.Structure.t ->
  Formula.t ->
  (bool, [> `Msg of string ]) result

(** Naive reference evaluation (structural recursion via {!Algebra.eval},
    no planner): the oracle for the differential planner suite. *)
val answers_naive :
  Fmtk_structure.Structure.t ->
  Formula.t ->
  ( string list * Fmtk_structure.Tuple.Set.t,
    [> `Msg of string ] )
  result

(** Textbook safe-range test (via safe-range normal form). Safe-range
    queries are exactly those whose answers are guaranteed independent of
    the domain beyond the active domain. *)
val safe_range : Formula.t -> bool
