(** Terms of relational first-order logic: variables and constants only
    (no proper function symbols, per the paper's convention). *)

type t = Var of string | Const of string

val equal : t -> t -> bool
val compare : t -> t -> int

(** Variables occurring in a term (zero or one). *)
val vars : t -> string list

(** [rename_var ~from ~into t] replaces variable [from] by variable [into]. *)
val rename_var : from:string -> into:string -> t -> t

(** [subst x u t] substitutes term [u] for variable [x] in [t]. *)
val subst : string -> t -> t -> t

val pp : Format.formatter -> t -> unit
val to_string : t -> string
