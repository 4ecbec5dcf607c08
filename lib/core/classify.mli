(** Classifying structures up to ≡n — rank-n elementary-equivalence types.

    A fundamental finite-model-theory fact behind the game method: for
    each rank n there are only finitely many rank-n types, and two
    structures have the same type iff the duplicator wins the n-round
    game. This module partitions concrete structure families accordingly
    and exhibits separating sentences between classes. *)

module Structure = Fmtk_structure.Structure
module Formula = Fmtk_logic.Formula

(** [by_rank ~rank ts] assigns each structure a class id (0-based, in
    first-representative order): equal ids iff ≡rank. Uses the exact EF
    solver — keep structures small.
    @raise Fmtk_runtime.Budget.Exhausted when the (default unlimited)
    [budget] runs out; use {!by_rank_budgeted} for graceful
    degradation. *)
val by_rank :
  ?config:Fmtk_games.Ef.config ->
  ?budget:Fmtk_runtime.Budget.t ->
  rank:int -> Structure.t list -> int array

(** Result of a budgeted classification. [exact = true]: [classes] is
    the genuine ≡rank partition. [exact = false] (budget ran out, reason
    in [gave_up]): [classes] partitions by joint 1-WL colour censuses
    ({!Fmtk_structure.Wl.census_equal1}) as {!by_rank} assigns ids, in
    polynomial time — distinct ids soundly certify structures
    distinguishable at {e some} rank, while equal ids are only heuristic
    evidence of equivalence. *)
type partition = {
  classes : int array;
  exact : bool;
  gave_up : Fmtk_runtime.Budget.reason option;
}

(** Budgeted {!by_rank} that degrades to the 1-WL census partition
    instead of raising. Never raises [Budget.Exhausted]. *)
val by_rank_budgeted :
  ?config:Fmtk_games.Ef.config ->
  ?budget:Fmtk_runtime.Budget.t ->
  rank:int -> Structure.t list -> partition

(** [separators ~rank ts] — for each pair [i < j] of structures in
    distinct classes, a sentence of quantifier rank ≤ rank true on the
    [i]-th and false on the [j]-th: one {!Fmtk_games.Ef.certify} solve
    per pair, keeping the pairs that get a sentence.
    @raise Fmtk_runtime.Budget.Exhausted when [budget] runs out during a
    solve; a pair whose sentence walk runs out is left out. *)
val separators :
  ?budget:Fmtk_runtime.Budget.t ->
  rank:int -> Structure.t list -> (int * int * Formula.t) list
