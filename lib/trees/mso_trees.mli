(** MSO over tree structures — the logical side of Thatcher–Wright.

    Each stock automaton of {!Automaton} has an MSO counterpart here;
    tests and experiment E21 check that on concrete trees the automaton
    run, the MSO sentence (evaluated by {!Fmtk_eval.Eval} on the tree's
    structure encoding) and a direct recursive algorithm all agree —
    the executable content of "regular = MSO-definable". *)

(** The boolean-expression alphabet used by the stock examples. *)
val bool_alphabet : string list

(** MSO: "the boolean expression tree evaluates to true" — guesses the set
    of true nodes, checks it is consistent with the labels and gates, and
    requires the root in it. *)
val boolean_eval_sentence : Fmtk_logic.Formula.t

(** Evaluate a boolean-expression tree three ways. *)
val eval_via_mso : Tree.t -> bool

val eval_via_automaton : Tree.t -> bool
val eval_direct : Tree.t -> bool

(** A second Thatcher–Wright instance: "the number of leaves labelled 1 is
    even" — the MSO sentence guesses the set of nodes whose subtree has an
    odd count (the automaton's state, encoded as a set quantifier). *)
val even_ones_sentence : Fmtk_logic.Formula.t

val even_ones_via_mso : Tree.t -> bool
