(** Syntactic transformations of first-order formulas.

    Every function here raises [Invalid_argument] on a formula with an
    extension node (counting, fixpoint or second-order; see
    {!Formula.is_fo}). *)

(** Negation normal form: negations pushed to atoms, [Implies]/[Iff]
    eliminated. Preserves semantics; quantifier rank is unchanged. *)
val nnf : Formula.t -> Formula.t

(** Prenex normal form: all quantifiers pulled to the front (the matrix is
    quantifier-free). Bound variables are renamed apart first. The result is
    logically equivalent on nonempty structures — on the empty one
    [(∃x φ) ∨ ψ] and [∃x (φ ∨ ψ)] differ, and no prenex form can help; its
    quantifier rank equals the number of quantifiers, so it may exceed the
    input's rank. *)
val prenex : Formula.t -> Formula.t

(** Constant folding and local simplifications ([f ∧ true ≡ f], double
    negation, etc.). Semantics-preserving on every structure, the empty one
    included (so [∃x.⊤] and [∀x.⊥] are kept); never increases size or
    rank. *)
val simplify : Formula.t -> Formula.t

(** Rename bound variables so that each quantifier binds a distinct variable
    that is also distinct from every free variable. *)
val rename_apart : Formula.t -> Formula.t

(** [relativize ~guard f] restricts every quantifier in [f] to elements
    satisfying [guard]: [∃x ψ] becomes [∃x (guard(x) ∧ ψ)] and [∀x ψ]
    becomes [∀x (guard(x) → ψ)]. [guard x] must be a formula whose only free
    variable is [x]. Used for r-local sentences (Theorem 3.12). *)
val relativize : guard:(string -> Formula.t) -> Formula.t -> Formula.t
