(** Isomorphism and partial isomorphism of finite structures
    (slide 38, Definition "Partial Isomorphism").

    Both notions respect constants: an isomorphism maps [c]'s interpretation
    in one structure to its interpretation in the other, so structures with
    distinguished elements (neighborhoods [N_r(ā)]) are compared with their
    distinguished tuples pinned. *)

(** [joint_signature a b] is what [a] and [b] are compared over: every
    relation either declares (empty where undeclared, so games on
    different signatures are symmetric) and their constants.
    @raise Invalid_argument naming a relation at two arities, or a
    constant declared on one side only. *)
val joint_signature : Structure.t -> Structure.t -> Fmtk_logic.Signature.t

(** [partial_iso a b pairs] checks that [fst p ↦ snd p] (together with the
    constant interpretations) is a partial isomorphism between [a] and
    [b]: a well-defined injective map between the domains, preserving and
    reflecting every relation of {!joint_signature} on its domain. A pair
    with an element outside its structure's domain makes it [false].
    This is the brute-force definition (every tuple over the mapped
    elements); games call it once at setup and the tests use it as the
    oracle of {!extension_ok}.
    @raise Invalid_argument as {!joint_signature}. *)
val partial_iso : Structure.t -> Structure.t -> (int * int) list -> bool

(** [extension_ok a b pairs (x, y)] assumes [pairs] is already a partial
    isomorphism and decides whether adding the pebble pair [(x, y)] keeps
    it one: [extension_ok a b pairs xy = partial_iso a b (xy :: pairs)].

    Apply it to [a b] once per game or search and keep the closure: that
    application resolves the joint signature — each relation's arity,
    both sides' membership indexes (empty on a side that does not declare
    the relation) and the constant pairs — and raises [Invalid_argument]
    as {!joint_signature} there, before any pair is checked. Each call
    then refuses [x] or [y] outside its domain, scans the constant pairs
    and [pairs] once for a repeated pebble (accepted as is) or a taken
    image (refused), and probes only the tuples through [x]: [R(x)], then
    [R(x,x)], [R(x,u)] and [R(u,x)] for every constant or pebbled [u],
    then an odometer over the pebbled elements for arity [>= 3]. That is
    O(|pairs| · |rels|) probes for arity [<= 2], with no allocation beyond
    the caller's pair; nullary relations are left to [partial_iso] at
    setup. The closure holds only built, read-only indexes, so parallel
    workers can share it. *)
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

(** [canonical t] — a certificate of [t]'s isomorphism type, constants
    pinned: [canonical a = canonical b] exactly when [isomorphic a b].
    Individualization–refinement (McKay & Piperno, "Practical graph
    isomorphism, II", 2014), since refinement alone cannot separate
    every pair (Cai–Fürer–Immerman): refine to an equitable colouring
    with cells ordered by their keys and constants as singletons,
    individualize each element of the first smallest non-singleton cell
    in turn, and keep the least leaf certificate — the size, then per
    relation (by name) its name, arity, tuple count and sorted
    relabelled tuples, then per constant (by name) its name and label.
    Automorphisms found at leaves equal to the first or best leaf prune
    the siblings they map onto explored ones. The budget is polled once
    per search node.
    @raise Invalid_argument when [size t] to some arity reaches [2^62].
    @raise Fmtk_runtime.Budget.Exhausted when the (default unlimited)
    [budget] runs out. *)
val canonical : ?budget:Fmtk_runtime.Budget.t -> Structure.t -> int array
