(** Isomorphism types of neighborhoods and their censuses.

    A {e census} counts, for each isomorphism type τ of an r-neighborhood,
    how many elements of a structure realize τ — the object both Hanf
    relations ([⇆r] and [⇆*m,r], slides 59 and Theorem 3.10) compare.

    {b One census loop.} Every element runs the same body, whatever the
    signature: a {!Gaifman.walker} walks its radius-r ball (a
    scratch-buffer BFS over the cached CSR Gaifman adjacency: O(ball) per
    element, never O(structure)); where the ball's serialization
    describes it ({!Gaifman.serializable}: no constants, unary and binary
    relations only) a serialization cache resolves it first — the ball
    is serialized into the walker's key buffer and the cache is probed
    with that slice, so a hit allocates O(1) words; otherwise, and on a
    cache miss, its neighborhood is built ({!Gaifman.build_neighborhood})
    and resolved by its canonical form. Type ids and censuses are
    identical with or without the cache, and for every [workers] value
    (sharded censuses give each worker its own walker and registry and
    merge them in range order, reproducing the sequential id
    assignment). This is the path that carries the million-element
    experiments (E28). *)

module Structure = Fmtk_structure.Structure

(** A registry of neighborhood types: one table from canonical form
    ({!Fmtk_structure.Iso.canonical}) to type id, and a representative
    per type. *)
type registry

val create_registry : unit -> registry

(** Number of distinct types registered. *)
val registry_size : registry -> int

(** [type_id reg nb] returns the id of [nb]'s isomorphism type, registering
    a new type if unseen: one canonical form and one table probe. *)
val type_id : registry -> Structure.t -> int

(** Representative structure of a type id. *)
val representative : registry -> int -> Structure.t

(** [element_types reg t ~radius] assigns to every element of [t] the type
    id of its radius-[radius] neighborhood. [workers] (default 1) shards
    the census by contiguous vertex range over the shared domain pool;
    the result is identical for every value, and the counters below
    count every worker's work. The budget is polled once per element
    and per search node of a canonical form.
    @raise Fmtk_runtime.Budget.Exhausted when the (default unlimited)
    budget runs out mid-census; the registry stays consistent (types
    already registered remain valid). *)
val element_types :
  ?workers:int ->
  ?budget:Fmtk_runtime.Budget.t ->
  registry ->
  Structure.t ->
  radius:int ->
  int array

(** [census reg t ~radius] is the census as a sorted association list
    [type id ↦ count] (only realized types listed). [workers]/[budget]
    as in {!element_types}. *)
val census :
  ?workers:int ->
  ?budget:Fmtk_runtime.Budget.t ->
  registry ->
  Structure.t ->
  radius:int ->
  (int * int) list

(** Number of canonical forms computed so far: one per ball the
    serialization cache did not resolve. *)
val iso_tests : registry -> int

(** Number of ball-serialization cache hits so far (streaming-path
    metric: censuses of regular inputs should resolve almost entirely
    here). *)
val serial_hits : registry -> int
