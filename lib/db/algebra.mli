(** Relational algebra: syntax and evaluation over a database instance.

    A database instance maps relation names to {!Relation.t}; the instance
    obtained from a structure also contains the unary relation {!adom}
    holding the whole domain (so compiled FO queries agree with natural
    semantics) and one singleton relation ["@c"] per constant [c].

    This module is the {e semantic source of truth}: {!eval} is a direct
    structural recursion, deliberately naive. The fast path is
    {!Planner.plan} + {!Physical.run}, which must agree with {!eval} on
    every expression (checked by the differential planner suite). *)

type pred =
  | Eq_attr of string * string
  | Eq_const of string * int
  | Not_p of pred
  | And_p of pred * pred
  | Or_p of pred * pred

type expr =
  | Base of string  (** named relation of the instance *)
  | Lit of Relation.t  (** literal relation *)
  | Select of pred * expr
  | Project of string list * expr
  | Rename of (string * string) list * expr
  | Join of expr * expr  (** natural join (= product when disjoint) *)
  | Union of expr * expr
  | Diff of expr * expr

(** Raised by the [_exn] entry points on unknown base relations. *)
exception Schema_error of string

(** ["#adom"], the active-domain table of {!Database.of_structure}. No
    parsed relation ('#' starts a comment in the structure text format)
    and no ["@c"] table can take this name. *)
val adom : string

(** {!adom} with its attribute named [x]: the padding {!Compile} emits. *)
val adom_as : string -> expr

module Database : sig
  type t

  val make : (string * Relation.t) list -> t

  (** Total lookup. *)
  val find : t -> string -> (Relation.t, string) result

  (** @raise Schema_error on unknown names. *)
  val find_exn : t -> string -> Relation.t

  val mem : t -> string -> bool
  val names : t -> string list

  (** Every relation name with its arity. Forces no relation. *)
  val arities : t -> (string * int) list

  (** View a finite structure as a database instance: each relation [R/k]
      becomes a table with attributes [#1..#k], plus {!adom} (attribute
      [#1]) and per-constant singletons ["@c"]. Relations materialize
      lazily, on first access. *)
  val of_structure : Fmtk_structure.Structure.t -> t

  (** The structure behind an {!of_structure} instance, if any — the
      planner uses its indexes/CSR rows as access paths. *)
  val source : t -> Fmtk_structure.Structure.t option
end

(** Evaluate an expression bottom-up (naive reference semantics). Total:
    unknown base relations and schema errors come back as [Error]. *)
val eval : Database.t -> expr -> (Relation.t, string) result

(** Like {!eval}.
    @raise Schema_error on unknown base relations.
    @raise Invalid_argument on schema errors. *)
val eval_exn : Database.t -> expr -> Relation.t

(** Number of operator nodes in the expression. *)
val size : expr -> int

val pp : Format.formatter -> expr -> unit
val pp_pred : Format.formatter -> pred -> unit
