(** Second-order logic: what is specific to monadic (MSO) and full
    relational (SO) quantification.

    The paper's survey motivates going beyond FO once its limits are
    proved: MSO defines the queries the toolbox showed FO cannot express
    (connectivity, EVEN over orders), and existential SO captures NP
    (Fagin's theorem). Set variables are written [X, Y, …] and bound by
    {!Fmtk_logic.Formula.Exists_set}/[Forall_set]; relation variables
    carry an arity and are bound by [Exists_rel]/[Forall_rel].
    {!Fmtk_eval.Eval} evaluates them. *)

module Formula = Fmtk_logic.Formula

(** Number of second-order quantifiers (set + relation). *)
val so_quantifier_count : Formula.t -> int

(** [is_existential_so f] — every second-order quantifier is existential
    and outermost (the Fagin fragment ∃SO). *)
val is_existential_so : Formula.t -> bool
