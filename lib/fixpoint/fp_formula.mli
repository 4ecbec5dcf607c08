(** FO(IFP): what is specific to fixpoint logic.

    The survey's complexity story culminates in fixpoint logics: FO cannot
    express transitive closure (Corollary 3.2), FO(IFP) can, and by the
    Immerman–Vardi theorem FO(IFP) captures exactly PTIME on ordered
    structures. The operator is the {!Fmtk_logic.Formula.Ifp} constructor
    and {!Fmtk_eval.Eval} evaluates it; this module holds the analyses and
    the canonical definitions. *)

module Formula = Fmtk_logic.Formula

(** [positive_in r f] — every occurrence of relation [r] in [f] is under an
    even number of negations ([Implies] counts as a negation of its left
    side, [Iff] as both polarities). Positive bodies make IFP coincide with
    the least fixpoint. *)
val positive_in : string -> Formula.t -> bool

(** Nesting depth of fixpoint operators. *)
val ifp_depth : Formula.t -> int

(** {1 The canonical FO(IFP) definitions} *)

(** Transitive closure: [[IFP T(x,y). E(x,y) ∨ ∃z (T(x,z) ∧ E(z,y))]](u,v)
    with free variables [u], [v]. *)
val transitive_closure : Formula.t

(** Connectivity as an FO(IFP) sentence (symmetric reachability is total). *)
val connectivity : Formula.t

(** EVEN over linear orders, FO(IFP)-definable thanks to the order
    (the Immerman–Vardi phenomenon): the set of odd positions is a
    fixpoint; size is even iff the last position is not odd. *)
val even_on_orders : Formula.t
