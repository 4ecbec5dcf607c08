(** Compile-then-run FO evaluation.

    {!Eval.holds} walks the formula AST on every evaluation step, resolves
    variables through an association list, and probes relations through
    [SMap.find] plus a tuple-set search — per atom, per assignment. This
    module instead compiles a {!Formula.t} {e once} against a fixed
    structure into a tree of closures over slot-numbered variables: the
    environment is a single int array, free-variable and binder slots are
    resolved at compile time, constants are interpreted at compile time,
    and every relational atom holds its relation's O(1) membership index
    ({!Fmtk_structure.Index}) with an arity-specialized allocation-free
    probe. A counting quantifier [∃^{≥k}x] compiles to a bounded witness
    scan over its own binder slot. Experiment E23 measures the gap against
    the naive interpreter, which remains the differential-testing oracle.

    A compiled formula reuses internal scratch buffers, so a single [t]
    must not be run from several domains at once — compile per domain
    instead. *)

module Formula = Fmtk_logic.Formula
module Structure = Fmtk_structure.Structure

type t

(** [compile a f] compiles [f] for evaluation on [a]. Free variables get
    argument slots in {!Formula.free_vars} order.
    @raise Invalid_argument if [f] mentions a relation or constant not
    interpreted by [a], or has a fixpoint or second-order node. *)
val compile : Structure.t -> Formula.t -> t

(** Like {!compile} with an explicit argument-slot order; [vars] must
    cover the free variables (extra names get unconstrained slots), as in
    {!Eval.definable_relation}. *)
val compile_with : Structure.t -> vars:string list -> Formula.t -> t

(** Free variables in argument-slot order. *)
val free_vars : t -> string list

(** The structure the formula was compiled against. *)
val structure : t -> Structure.t

(** [run t args] evaluates with [args.(i)] assigned to the [i]-th free
    variable (see {!free_vars}).
    @raise Invalid_argument on an argument-count mismatch. *)
val run : t -> int array -> bool

(** Named-environment convenience around {!run}.
    @raise Invalid_argument if a free variable is missing from [env]. *)
val holds : t -> env:(string * int) list -> bool

(** One-shot [compile]+[run] for sentences — same contract as
    {!Eval.sat}. *)
val sat : Structure.t -> Formula.t -> bool

(** Answer set of an already-compiled query: all tuples (in slot order)
    satisfying it — the [n^k] enumeration reuses one environment array. *)
val definable_relation_of : t -> Fmtk_structure.Tuple.Set.t

(** [definable_relation a f ~vars] — as {!Eval.definable_relation}, via
    compilation. *)
val definable_relation :
  Structure.t -> Formula.t -> vars:string list -> Fmtk_structure.Tuple.Set.t

(** [answers a f] — as {!Eval.answers}, via compilation. *)
val answers : Structure.t -> Formula.t -> string list * Fmtk_structure.Tuple.Set.t
