(** Directed-graph algorithms over a binary relation of a structure.

    All functions take the relation name (default ["E"]). These are the
    substrate queries of the paper's Section 3: connectivity, acyclicity,
    transitive closure, degrees. Undirected distances and balls are
    [Fmtk_locality.Gaifman]'s, walked over the structure's cached CSR
    Gaifman graph; there is no list adjacency here. *)

(** Edge list of the relation. *)
val edges : ?rel:string -> Structure.t -> (int * int) list

val out_degrees : ?rel:string -> Structure.t -> int array
val in_degrees : ?rel:string -> Structure.t -> int array

(** [degree_set g] is the set of in- and out-degrees realized in [g] —
    [degs(G) = in(G) ∪ out(G)] of the BNDP definition (slide 54). *)
val degree_set : ?rel:string -> Structure.t -> int list

(** Maximum in- or out-degree. *)
val max_degree : ?rel:string -> Structure.t -> int

(** Connected in the undirected sense; the empty graph and singletons are
    connected. *)
val connected : ?rel:string -> Structure.t -> bool

(** Number of connected components (undirected): union-find over the
    relation's pairs, O(n + m). *)
val component_count : ?rel:string -> Structure.t -> int

(** Acyclic as a {e directed} graph (no directed cycle): depth-first
    search over the relation's forward CSR rows. *)
val acyclic : ?rel:string -> Structure.t -> bool

(** Acyclic as an {e undirected} graph (forest; antiparallel edge pairs are
    treated as a single undirected edge, not a cycle). *)
val undirected_acyclic : ?rel:string -> Structure.t -> bool

(** [is_tree g] — connected and undirected-acyclic. *)
val is_tree : ?rel:string -> Structure.t -> bool

(** Transitive closure of the relation, as a new tuple set. *)
val transitive_closure : ?rel:string -> Structure.t -> Tuple.Set.t

(** [transitive_closure_structure g] replaces the relation by its transitive
    closure. *)
val transitive_closure_structure : ?rel:string -> Structure.t -> Structure.t

(** Symmetric closure of the relation (add [(y,x)] for each [(x,y)]). *)
val symmetric_closure : ?rel:string -> Structure.t -> Structure.t

(** Every ordered pair of {e distinct} elements is an edge. *)
val is_complete : ?rel:string -> Structure.t -> bool
