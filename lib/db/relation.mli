(** Named-attribute relations: the tables of the database substrate. *)

module Tuple = Fmtk_structure.Tuple

type t

(** [make attrs tuples] — attribute names must be distinct; every tuple must
    have exactly one field per attribute. *)
val make : string list -> int array list -> t

val of_set : string list -> Tuple.Set.t -> t
val attrs : t -> string list

(** The tuples, in {!Tuple.compare} order. O(1): no copy is made. *)
val tuples : t -> Tuple.Set.t

(** Number of tuples, cached: O(1). *)
val cardinality : t -> int

val arity : t -> int

(** Empty relation over given attributes. *)
val empty : string list -> t

(** [add tup r] is [r] with [tup] inserted, in O(log n). Adding a tuple
    already present returns [r] itself.
    @raise Invalid_argument if [tup] has not one field per attribute. *)
val add : int array -> t -> t

(** [remove tup r] is [r] without [tup], in O(log n). Removing an absent
    tuple returns [r] itself.
    @raise Invalid_argument if [tup] has not one field per attribute. *)
val remove : int array -> t -> t

(** {1 Operators} *)

(** [project names r] keeps the listed attributes, in the listed order.
    @raise Invalid_argument if a name is not an attribute of [r]. *)
val project : string list -> t -> t

(** [rename mapping r] renames attributes ([(old, new)] pairs). *)
val rename : (string * string) list -> t -> t

(** [select p r] keeps tuples satisfying the predicate, which receives a
    lookup function from attribute name to value. *)
val select : ((string -> int) -> bool) -> t -> t

(** Natural join: match on shared attributes; result attributes are
    [attrs a @ (attrs b \ attrs a)]. A join with no shared attributes is the
    cartesian product. *)
val join : t -> t -> t

(** Union and difference require identical attribute {e sets}; the second
    argument is reordered to match the first. *)
val union : t -> t -> t

val diff : t -> t -> t
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
