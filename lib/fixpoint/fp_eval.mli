(** FO(IFP) evaluation under the [Fp_eval] names: aliases of
    {!Fmtk_eval.Compiled}, which compiles each fixpoint to a staged
    [Bytes] cell. They count [stages] and [tuples_tested] (the other
    fields stay as they are) and poll the budget once per fixpoint
    candidate tuple; {!Fmtk_eval.Eval} computes the same sets and
    counters, and is the oracle they are tested against. *)

type stats = Fmtk_eval.Eval.stats

val new_stats : unit -> stats

(** {!Fmtk_eval.Compiled.sat}. *)
val sat :
  ?stats:stats ->
  ?budget:Fmtk_runtime.Budget.t ->
  Fmtk_structure.Structure.t ->
  Fmtk_logic.Formula.t ->
  bool

(** {!Fmtk_eval.Compiled.definable_relation}. *)
val answers :
  ?stats:stats ->
  ?budget:Fmtk_runtime.Budget.t ->
  Fmtk_structure.Structure.t ->
  Fmtk_logic.Formula.t ->
  vars:string list ->
  Fmtk_structure.Tuple.Set.t
