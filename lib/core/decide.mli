(** Budgeted equivalence decisions with graceful degradation.

    {!Fmtk_games.Ef.solve} decides [A ≡rank B] exactly but is worst-case
    exponential; under a {!Fmtk_runtime.Budget.t} it can give up. This
    module wraps the exact solver in a degradation ladder: when the game
    search exhausts its budget, cheap sound-but-incomplete certificates
    take over, and the result reports which method answered.

    The ladder, in order:
    + the exact EF game search (answers [Equivalent]/[Distinguished] at
      the requested rank);
    + 2-WL, i.e. C^3, refinement ({!Fmtk_structure.Wl.equiv}) — the
      strongest certificate rung: a census mismatch certifies
      [Distinguishable] (counting quantifiers are FO-expressible on
      finite structures). Size-guarded, since the joint refinement walks
      [n^2] tuples per round;
    + Gaifman degree sequences — different degree multisets are
      FO-expressible, so a mismatch certifies [Distinguishable];
    + 1-WL colour refinement ({!Fmtk_structure.Wl.census_equal1}) —
      colour census mismatch certifies [Distinguishable] likewise
      (subsumed by the 2-WL rung but unguarded: it is linear-ish, so it
      still fires on structures too big for 2-WL);
    + Hanf locality ({!Fmtk_locality.Hanf}) at the sound radius
      [(3^rank - 1) / 2]: matching neighborhood censuses certify
      [Equivalent] {e at the requested rank} (Theorem 3.8/3.10), a
      mismatch certifies [Distinguishable]. Attempted only when the
      radius is local enough to be cheap.

    Soundness note: [Distinguishable] is deliberately weaker than
    [Distinguished] — the separating sentence a certificate implies may
    have quantifier rank above [rank], so reporting [Distinguished]
    would risk a wrong verdict at the requested rank. A budgeted run
    therefore never returns a wrong answer: every verdict is either
    exact, a sound certificate, or [Gave_up]. *)

module Structure = Fmtk_structure.Structure
module Budget = Fmtk_runtime.Budget
module Formula = Fmtk_logic.Formula
module Ef = Fmtk_games.Ef

(** Which rung of the ladder produced the verdict. *)
type method_ =
  | Exact_game
  | Kwl_refinement  (** 2-WL / C^3 census mismatch *)
  | Degree_sequence
  | Wl_refinement  (** 1-WL / C^2 census mismatch *)
  | Hanf_locality

val method_to_string : method_ -> string

type verdict =
  | Equivalent
      (** [A ≡rank B] — exact, or certified by Hanf locality. *)
  | Distinguished of Formula.t option
      (** [A ≢rank B] — exact; the separating sentence is present when
          extraction was requested and its walk fit in the budget. *)
  | Distinguishable
      (** Some FO sentence separates [A] and [B] (certificate), but its
          rank may exceed [rank] — in particular the structures are not
          isomorphic. *)
  | Gave_up of Budget.reason
      (** Budget exhausted and every certificate was inconclusive. *)

type outcome = {
  verdict : verdict;
  answered_by : method_ option;  (** [None] iff [Gave_up]. *)
  positions : int;  (** game positions explored before deciding/giving up *)
}

(** [equiv ?config ?budget ?extract ~rank a b] — decide [A ≡rank B]
    under [budget] (default unlimited), degrading down the ladder on
    exhaustion. [extract] (default false) asks for a separating sentence
    on the exact [Distinguished] path: the game is then solved once, and
    sequentially, by {!Fmtk_games.Ef.certify}, which reads the sentence
    off the solve's memo and checks it ([None] if the budget runs out
    during that read). Never raises [Budget.Exhausted]. *)
val equiv :
  ?config:Ef.config ->
  ?budget:Budget.t ->
  ?extract:bool ->
  rank:int ->
  Structure.t ->
  Structure.t ->
  outcome
