(** FO(IFP) evaluation under the [Fp_eval] names: aliases of
    {!Fmtk_eval.Eval}, which evaluates fixpoints. *)

type stats = Fmtk_eval.Eval.stats

val new_stats : unit -> stats

(** {!Fmtk_eval.Eval.sat}. *)
val sat :
  ?stats:stats ->
  ?budget:Fmtk_runtime.Budget.t ->
  Fmtk_structure.Structure.t ->
  Fmtk_logic.Formula.t ->
  bool

(** {!Fmtk_eval.Eval.definable_relation}. *)
val answers :
  ?stats:stats ->
  ?budget:Fmtk_runtime.Budget.t ->
  Fmtk_structure.Structure.t ->
  Fmtk_logic.Formula.t ->
  vars:string list ->
  Fmtk_structure.Tuple.Set.t
