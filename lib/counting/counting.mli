(** FO with counting quantifiers — FO(Cnt).

    The survey's aggregate-operators discussion starts from counting:
    [∃^{≥k} x φ] ("at least k elements satisfy φ"), the
    {!Fmtk_logic.Formula.Count_geq} constructor. Over finite structures
    counting quantifiers add no expressive power — {!expand} eliminates
    them — but they add succinctness: the expansion multiplies quantifier
    rank and blows up size quadratically in [k], which is precisely why
    SQL exposes COUNT rather than making you write the expansion. Locality
    survives: FO(Cnt) queries are as Gaifman-local as their expansions
    (exercised in the tests and experiment E22). *)

(** The formula type and its operations, re-exported so that
    [Counting.Count_geq (k, x, φ)] and the other constructors resolve
    here. *)
include module type of struct
  include Fmtk_logic.Formula
end

(** {1 Semantics} *)

(** {!Fmtk_eval.Compiled.sat}: a counting quantifier is a bounded witness
    scan, short-circuiting at [k] witnesses. *)
val sat : Fmtk_structure.Structure.t -> t -> bool

(** {1 Elimination} *)

(** [expand f] rewrites every [∃^{≥k} x φ] into
    [∃x1..xk (⋀ distinct ∧ ⋀ φ(x/xi))] — plain FO, semantically
    equivalent (checked by tests), but with rank inflated by [k−1] per
    counting quantifier and size inflated by [Θ(k² + k·|φ|)]. *)
val expand : t -> t

(** {1 Stock queries} *)

(** [min_out_degree k]: φ(x) = ∃^{≥k} y E(x,y) — "x has out-degree ≥ k". *)
val min_out_degree : int -> t

(** [degree_at_least_sentence k]: some vertex has out-degree ≥ k. *)
val degree_at_least_sentence : int -> t
