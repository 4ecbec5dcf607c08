(** Incremental maintenance of materialized algebra queries
    (counting-based delta evaluation).

    [materialize] evaluates an expression bottom-up keeping derivation
    counts at every node; [update] pushes a single-tuple base-relation
    insert/delete through the tree, touching only the paths that mention
    the updated relation — this is how [fmtk serve] answers repeated
    queries against evolving structures without recomputation.

    The root keeps the answer itself: an ordered {!Relation.t} (its
    support) plus a table of the tuples derived more than once. So a
    read costs O(1) for the count and O(log n + k) for the [k] smallest
    tuples, and each tuple entering or leaving the answer costs [update]
    one O(log n) ordered-set insert or removal. A plan keeps only the
    relation arities of the database it was built from, not the
    database: it pins no relation it does not read.

    The active domain is treated as fixed: callers must only insert tuples
    over existing domain elements (enforced by [Store.update]). Inserting
    a tuple already present, or deleting one that is absent, is a no-op.
    Maintained results agree exactly with {!Algebra.eval} re-evaluated
    from scratch (checked by the differential planner suite). *)

type t

(** Build the maintained materialization of [e] (after
    {!Planner.rewrite}) against [db], the root's ordered answer
    included. Budget-governed: polls per processed row, letting
    [Budget.Exhausted] escape. *)
val materialize :
  ?budget:Fmtk_runtime.Budget.t ->
  Algebra.Database.t ->
  Algebra.expr ->
  (t, string) result

(** The current answer, in O(1): the root's own relation, not a copy.
    Later updates leave a relation already returned unchanged. *)
val result : t -> Relation.t

(** [update t ~rel tup ~add] applies a single-tuple insert ([add:true]) or
    delete to base relation [rel] and propagates deltas: hash-table work
    at the inner nodes on the updated relation's paths, and one
    O(log n) change to the answer per tuple whose count at the root
    drops to or rises from zero. [Error] on a relation the database did
    not have or a tuple of the wrong arity. A budget exhaustion
    mid-propagation may leave the counts and the answer torn; callers
    must then discard [t]. *)
val update :
  ?budget:Fmtk_runtime.Budget.t ->
  t ->
  rel:string ->
  int array ->
  add:bool ->
  (unit, string) result
