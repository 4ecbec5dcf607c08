(** Gaifman graphs, distances, balls and neighborhoods (slides 56–57).

    The Gaifman graph of a structure connects two elements iff they co-occur
    in some tuple of some relation. Distances, balls [B_r(ā)] and
    [r]-neighborhoods [N_r(ā)] (the substructure induced by the ball, with
    [ā] distinguished) are all relative to it.

    {b One traversal.} Every ball in the locality modules — the census,
    Hanf's pointed censuses, Gaifman locality, local sentences, and the
    one-shot views below — comes from one {!walker}: a scratch-buffer BFS
    over the structure's cached CSR Gaifman adjacency
    ({!Fmtk_structure.Structure.gaifman_csr}), and every neighborhood from
    its {!build_neighborhood}. After one O(n + m) setup per walker, a walk
    and a build cost O(ball), never O(structure). *)

module Structure = Fmtk_structure.Structure

(** The Gaifman graph as CSR rows — the structure's cached
    {!Fmtk_structure.Structure.gaifman_csr}, the form the walker and 1-WL
    refinement traverse. *)
val adjacency_csr : Structure.t -> Fmtk_structure.Csr.t

(** {1 The ball walker} *)

(** Reusable BFS scratch over one structure: one vertex-indexed array of
    local ids (−1 outside the current ball), ball-sized buffers (members
    and their distances by local id, the serialization key) and
    per-relation views (membership indexes, forward CSR rows, and the
    tuples of wider relations keyed by their first element), built once.
    A walk allocates nothing per ball member. A walker holds
    the {e current ball}, replaced by each {!walk}. It is mutable and must
    not be shared across domains: make one per domain. *)
type walker

(** [walker t] builds the scratch and views in O(n + m). It also forces
    [t]'s cached Gaifman rows and the membership indexes of its unary
    relations, so build one walker before spawning domains that build
    their own. *)
val walker : Structure.t -> walker

(** [walk w r ā] makes [B_r(ā)] the current ball and returns its size.
    Members get local ids [0 ..] in BFS order: the distinct elements of
    [ā] first, in order (repeated elements are fine), then by distance.
    Cost O(ball) plus resetting the previous ball.
    @raise Invalid_argument naming the value on a negative [r] or an
    element of [ā] outside the domain (the walker stays usable). *)
val walk : walker -> int -> int list -> int

(** [member w i] — the element with local id [i] in the current ball
    ([0 <= i <] the size {!walk} returned). *)
val member : walker -> int -> int

(** [build_neighborhood w] = [N_r(ā)] for the current ball: the induced
    substructure on local ids (BFS order, not sorted — compare
    neighborhoods up to isomorphism), the walked tuple pinned as fresh
    constants ["@p1", "@p2", …] (so {!Fmtk_structure.Iso.isomorphic}
    respects distinguished tuples, as Definition 3.5 requires), and the
    structure's constants that fall inside the ball (the others leave the
    signature, as in {!Fmtk_structure.Structure.induced}). O(ball ·
    degree), not O(structure). *)
val build_neighborhood : walker -> Structure.t

(** Whether {!serialize} describes this structure's balls: no constants,
    every relation unary or binary, at most 62 unary relations. *)
val serializable : walker -> bool

(** [serialize w] writes a flat int description of the current ball, in
    BFS order, for a ball walked from one element, into the walker's key
    buffer ({!serialized}) and returns its length. Sound, not complete:
    two such balls with equal serializations (over structures of one
    signature) have isomorphic neighborhoods; isomorphic ones may
    serialize differently. The census probes its cache with the buffer's
    slice, so a ball costs O(ball) time and no allocation.
    @raise Invalid_argument unless {!serializable} and the walk had one
    seed. *)
val serialize : walker -> int

(** [serialized w] — the key buffer: its first [serialize w] entries
    are the last serialization. {b Read-only}, and overwritten (possibly
    replaced by a larger array) by the next {!serialize}. *)
val serialized : walker -> int array

(** {1 One-shot views}

    Each builds a fresh walker: fine for one question, but a loop over
    elements should hold one {!walker} and {!walk} it. All raise
    [Invalid_argument] like {!walk}. *)

(** [distance t u v] — Gaifman distance; [max_int] when disconnected. *)
val distance : Structure.t -> int -> int -> int

(** [ball t r tuple] = [B_r(ā)]: elements within distance [r] of some
    element of [tuple], sorted. *)
val ball : Structure.t -> int -> int list -> int list

(** [neighborhood t r tuple] = [N_r(ā)], as {!build_neighborhood} builds
    it for [walk w r tuple]. *)
val neighborhood : Structure.t -> int -> int list -> Structure.t

(** [diameter t] — largest finite pairwise distance (0 for empty). *)
val diameter : Structure.t -> int

(** [degree t] — maximum Gaifman-graph degree. *)
val degree : Structure.t -> int
