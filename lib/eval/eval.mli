(** Model checking: does a finite structure satisfy a formula?

    This is the naive recursive algorithm of slide 19 — lookup for atoms,
    Boolean semantics for connectives, and a scan of the whole domain for
    each quantifier — giving [O(n^k)] time and [O(k log n)] space for
    domain size [n] and quantifier depth [k]. The instrumentation counters
    make that cost measurable (experiment E1).

    The same walker evaluates every extension constructor of
    {!Formula.t}:
    - a counting quantifier [∃^{≥k}x] scans the domain once, stopping at
      the [k]-th witness or once too few elements remain;
    - a fixpoint [[IFP_{R,x̄} φ](t̄)] is computed bottom-up,
      [S_{i+1} = S_i ∪ {ā | φ(S_i, ā)}] until stable: at most [n^k]
      stages, each testing [n^k] candidate tuples — polynomial data
      complexity. A fixpoint set outside every relation variable depends
      only on the outer free variables of its body, so it is computed once
      per entry-point call ({!definable_relation} shares it across its
      whole enumeration);
    - set quantifiers enumerate the [2^n] subsets of the domain (refused
      past [n = 22]) and arity-k relation quantifiers the [2^(n^k)]
      relations (refused past [n^k = 20] cells, before any is built).

    It is the toolbox's one naive evaluator: the oracle the differential
    suites hold {!Compiled} to (answers, and for fixpoints also [stages]
    and [tuples_tested]), and the instrumented reference of experiments
    E1 and E20. The library's FO(IFP) entry points ([Fp_eval], [fmtk ifp])
    run on {!Compiled}; nothing picks between the two at run time.

    Relation atoms probe the structure's tuple sets ({!Structure.mem}), not
    the index {!Compiled} uses, so the two stay independent. Every entry
    point polls the (default unlimited) [budget] at each formula node and
    each fixpoint candidate tuple, and raises
    {!Fmtk_runtime.Budget.Exhausted} when it runs out. *)

module Formula = Fmtk_logic.Formula
module Structure = Fmtk_structure.Structure

(** Work counters, incremented during evaluation. *)
type stats = {
  mutable atom_checks : int;  (** relation/equality/membership lookups *)
  mutable quantifier_steps : int;
      (** domain elements tried across all first-order and counting
          quantifier scans *)
  mutable stages : int;  (** fixpoint stages computed *)
  mutable tuples_tested : int;
      (** candidate tuples tested across all fixpoint stages *)
  mutable set_candidates : int;  (** sets tried by set quantifiers *)
  mutable rel_candidates : int;  (** relations tried by relation quantifiers *)
}

val new_stats : unit -> stats

(** Variable assignments (environments). *)
type env

val empty_env : env
val bind : string -> int -> env -> env
val lookup : env -> string -> int option

(** [holds ?stats ?budget a f ~env] decides [a ⊨ f] under [env].
    @raise Invalid_argument if a free variable of [f] is unbound in [env],
    [f] mentions a relation/constant not interpreted by [a] or an unbound
    set variable, a relation variable is used at the wrong arity, a
    fixpoint's binder list repeats a variable, or a second-order
    quantifier exceeds its size guard. *)
val holds :
  ?stats:stats ->
  ?budget:Fmtk_runtime.Budget.t ->
  Structure.t ->
  Formula.t ->
  env:env ->
  bool

(** [sat ?stats ?budget a f] — [holds] with the empty environment; [f]
    must be a sentence. *)
val sat :
  ?stats:stats -> ?budget:Fmtk_runtime.Budget.t -> Structure.t -> Formula.t -> bool

(** [answers a f] computes [ans(f, A)] (slide 10): the set of tuples [d̄]
    over the free variables of [f] (in {!Formula.free_vars} order) with
    [A ⊨ f(x̄/d̄)]. Returns the variable order and the answer tuples. *)
val answers :
  ?stats:stats ->
  ?budget:Fmtk_runtime.Budget.t ->
  Structure.t ->
  Formula.t ->
  string list * Fmtk_structure.Tuple.Set.t

(** [definable_relation a f ~vars] evaluates [f] as a query with
    distinguished variables [vars] (a permutation/superset of the free
    variables) and returns the answer tuples in that variable order.
    @raise Invalid_argument if a name repeats in [vars]. *)
val definable_relation :
  ?stats:stats ->
  ?budget:Fmtk_runtime.Budget.t ->
  Structure.t ->
  Formula.t ->
  vars:string list ->
  Fmtk_structure.Tuple.Set.t
