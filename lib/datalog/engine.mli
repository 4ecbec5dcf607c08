(** Datalog evaluation: naive and semi-naive bottom-up fixpoints, with
    stratified negation.

    Both strategies compute the same minimal model in one stratum loop.
    Each rule body compiles to relational algebra (positive literals
    joined, negated literals as anti-joins) and runs through
    {!Fmtk_db.Planner.plan} and {!Fmtk_db.Physical.run}; head tuples are
    built from the body's rows. Naive evaluation evaluates every rule
    against the whole IDB each round; semi-naive evaluation evaluates each
    rule once per positive IDB literal, that literal reading only the
    previous round's new tuples — the work saving E18 measures. Both take
    the same number of rounds. *)

module Tuple = Fmtk_structure.Tuple
module Structure = Fmtk_structure.Structure

(** A database instance: predicate name → tuples. *)
module Db : sig
  type t

  val empty : t
  val add : string -> Tuple.Set.t -> t -> t
  val find : t -> string -> Tuple.Set.t
  (** Empty set for unknown predicates. *)

  (** EDB view of a structure: one predicate per relation, plus the unary
      ["adom"] (needed to make rules like [sg(x,x) :- adom(x)] safe). *)
  val of_structure : Structure.t -> t
end

(** Work counters. [iterations] counts fixpoint rounds, summed over the
    strata. [join_work] counts the rows the rule bodies produced, summed
    over every rule evaluation: a body's rows are its variable bindings,
    before they are projected onto the head. *)
type stats = { iterations : int; join_work : int }

(** [naive program db] — the minimal model (IDB ∪ EDB) plus stats. A
    predicate missing from [db] is empty.
    @raise Invalid_argument if a rule is not range-restricted, the program
    is not stratifiable, a predicate is used with two arities, or [db]
    holds a tuple of another arity than the program gives its predicate.
    @raise Fmtk_runtime.Budget.Exhausted when the (default unlimited)
    [budget] runs out — polled once per row each physical operator
    processes, amortized through the budget's poll-interval counter. *)
val naive :
  ?budget:Fmtk_runtime.Budget.t -> Ast.program -> Db.t -> Db.t * stats

(** Semi-naive (differential) evaluation; same result and the same
    [iterations], less join work. *)
val seminaive :
  ?budget:Fmtk_runtime.Budget.t -> Ast.program -> Db.t -> Db.t * stats

(** Convenience: run a program against a structure and read one predicate
    off the result ([strategy] defaults to semi-naive). *)
val run :
  ?strategy:[ `Naive | `Seminaive ] ->
  ?budget:Fmtk_runtime.Budget.t ->
  Ast.program ->
  Structure.t ->
  pred:string ->
  Tuple.Set.t
