(** Isomorphism and partial isomorphism of finite structures
    (slide 38, Definition "Partial Isomorphism").

    Both notions respect constants: an isomorphism maps [c]'s interpretation
    in one structure to its interpretation in the other, so structures with
    distinguished elements (neighborhoods [N_r(ā)]) are compared with their
    distinguished tuples pinned. *)

(** [partial_iso a b pairs] checks that [fst p ↦ snd p] (together with the
    constant interpretations of the common constants of [a] and [b]) is a
    partial isomorphism between [a] and [b]: a well-defined injective map
    preserving and reflecting every relation on its domain. *)
val partial_iso : Structure.t -> Structure.t -> (int * int) list -> bool

(** [extension_ok a b pairs (x, y)] assumes [pairs] is already a partial
    isomorphism and decides whether adding the pebble pair [(x, y)] keeps it
    one. Only tuples involving [x] (resp. [y]) are re-checked, which is what
    makes the game solver's inner loop cheap. *)
val extension_ok : Structure.t -> Structure.t -> (int * int) list -> int * int -> bool

(** [find_iso a b] is a full isomorphism [f] (as an array indexed by
    elements of [a]) if one exists. Uses colour-refinement invariants to
    prune the backtracking search.
    @raise Fmtk_runtime.Budget.Exhausted when the (default unlimited)
    [budget] runs out before the search is decided. *)
val find_iso :
  ?budget:Fmtk_runtime.Budget.t ->
  Structure.t -> Structure.t -> int array option

val isomorphic : Structure.t -> Structure.t -> bool

(** [invariant_key t] is an isomorphism-invariant fingerprint of [t]: equal
    keys are necessary (not sufficient) for isomorphism. Used to bucket
    neighborhood types before exact checks. *)
val invariant_key : Structure.t -> string
