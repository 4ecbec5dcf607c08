(** Logical rewriting + cost-based physical planning for {!Algebra.expr}.

    The pipeline is [rewrite] (selection pushdown, rename fusion,
    projection collapsing, adom-padding removal) followed by [plan]
    (join-tree flattening, cardinality estimation from relation sizes and
    per-column distinct counts, greedy join ordering, GYO ear reduction
    with a Yannakakis-style semijoin full reducer on the acyclic fragment,
    anti-joins for compiled negation and for [a - (a ⋈ g)], and
    access-path selection against {!Fmtk_structure.Index}). The resulting
    {!Physical.t} must evaluate to exactly what {!Algebra.eval} computes —
    checked by the differential planner suite. *)

(** Semantics-preserving logical rewrite. May force (lazy) relations of
    [db] to resolve base schemas.
    @raise Algebra.Schema_error on unknown base relations. *)
val rewrite : Algebra.Database.t -> Algebra.expr -> Algebra.expr

(** Cardinality statistics: per-relation row counts and exact per-column
    distinct counts, computed lazily per relation and cached. *)
type stats

val stats_of_database : Algebra.Database.t -> stats

(** Rewrite + translate to a physical plan. Total: schema-level problems
    (unknown relations/attributes) come back as [Error]. *)
val plan :
  ?stats:stats ->
  Algebra.Database.t ->
  Algebra.expr ->
  (Physical.t, string) result

type explanation = {
  logical : Algebra.expr;  (** as given *)
  optimized : Algebra.expr;  (** after {!rewrite} *)
  physical : Physical.t;
}

val explain :
  ?stats:stats ->
  Algebra.Database.t ->
  Algebra.expr ->
  (explanation, string) result
