(** Second-order definitions of queries FO cannot express — the payoff of
    going beyond FO once the toolbox has established the limits, plus the
    NP-flavoured existential-SO examples behind Fagin's theorem.

    Every query comes with a [_direct] combinatorial implementation; tests
    and experiment E19 check that the logical definition and the direct
    algorithm agree on families of structures. *)

module Structure = Fmtk_structure.Structure

(** {1 MSO over linear orders} *)

(** EVEN as an MSO sentence over [{lt}] — inexpressible in FO (Theorem
    3.1) but definable with one set quantifier: there is a set containing
    the first element, alternating along successors, omitting the last. *)
val even_on_orders : Fmtk_logic.Formula.t

(** {1 MSO over graphs} *)

(** Connectivity: every nonempty set closed under (undirected) edges is
    everything. *)
val connectivity : Fmtk_logic.Formula.t

(** Undirected 3-colorability of the underlying simple graph (loops
    ignored) — existential MSO, the canonical NP query. *)
val three_colorable : Fmtk_logic.Formula.t

val three_colorable_direct : Structure.t -> bool

(** {1 Full existential SO} *)

(** Directed Hamiltonian path: there is a strict linear order [L] on the
    vertices whose consecutive pairs are edges. Quantifies a binary
    relation — evaluation is practical only for very small graphs. *)
val hamiltonian_path : Fmtk_logic.Formula.t

val hamiltonian_path_direct : Structure.t -> bool
