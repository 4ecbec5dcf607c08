(** Generators for the structure families used throughout the paper. *)

(** Bare set of [n] elements over the empty signature (slide 44). *)
val set : int -> Structure.t

(** [linear_order n] is [L_n]: domain [0..n-1] ordered by [lt] = strictly
    less-than (Theorem 3.1's family). *)
val linear_order : int -> Structure.t

(** [successor n] is the successor relation
    [{(0,1), (1,2), .., (n-2,n-1)}] over signature [E/2] (slide 55). *)
val successor : int -> Structure.t

(** [cycle n] is the directed cycle [C_n] (n ≥ 1). *)
val cycle : int -> Structure.t

(** [path n] — alias of {!successor}: a chain with [n] nodes. *)
val path : int -> Structure.t

(** [complete n] is [K_n] (all ordered pairs of distinct elements). *)
val complete : int -> Structure.t

(** [binary_tree depth] is the full binary tree with edges parent→child;
    [depth 0] is a single root. Used by the same-generation example. *)
val binary_tree : int -> Structure.t

(** [grid w h] is the w×h grid with right- and down-edges; degree ≤ 4
    bounded-degree family for Theorem 3.11. *)
val grid : int -> int -> Structure.t

(** [union_of gs] folds {!Structure.disjoint_union} over a nonempty list. *)
val union_of : Structure.t list -> Structure.t

(** [random_graph ~rng n p] draws each of the [n(n-1)] directed edges
    independently with probability [p]. *)
val random_graph : rng:Random.State.t -> int -> float -> Structure.t

(** [random_structure ~rng sg n] draws a uniform structure over signature
    [sg] with domain size [n]: every possible tuple of every relation is
    included independently with probability 1/2, constants uniform. This is
    the measure underlying μ_n (0-1 law, slide 64). *)
val random_structure :
  rng:Random.State.t -> Fmtk_logic.Signature.t -> int -> Structure.t

(** [random_undirected_graph ~rng n p] draws each unordered pair as a
    symmetric edge pair with probability [p]; no self-loops. The G(n,p)
    model for extension-axiom witnesses. *)
val random_undirected_graph : rng:Random.State.t -> int -> float -> Structure.t

(** [bounded_degree_graph ~rng n d] generates a random undirected graph with
    every degree ≤ [d] (greedy matching-style sampling). *)
val bounded_degree_graph : rng:Random.State.t -> int -> int -> Structure.t

(** {1 Bounded-degree families at scale}

    The three generators below build endpoint arrays and construct
    through {!Structure.of_graph} — CSR-backed, no per-tuple
    allocation — so they are usable at the 10^6-element sizes of the
    locality pipeline (experiment E28). All are symmetric (undirected)
    over signature [E/2]. *)

(** [torus w h] is the w×h grid with wraparound in both dimensions:
    4-regular for [w, h >= 3], vertex-transitive (every radius-r
    neighborhood type is realized [w·h] times). *)
val torus : int -> int -> Structure.t

(** [chorded_cycle n ~stride] is the cycle [0 — 1 — .. — n-1 — 0] plus a
    chord [i — (i + stride) mod n] for every [i]: 4-regular for
    [2 <= stride <= n - 2] with [stride <> n/2], long odd diameter
    structure with small, uniform neighborhoods.
    @raise Invalid_argument unless [1 <= stride < n]. *)
val chorded_cycle : int -> stride:int -> Structure.t

(** [random_regular ~rng n d] samples an exactly [d]-regular simple
    undirected graph: configuration-model stub pairing followed by
    degree-preserving 2-switch repair of self-loops and duplicate
    edges, with a fresh pairing from [rng] whenever a repair stalls;
    past half density ([2d > n]) the complement of such a graph.
    @raise Invalid_argument unless [0 <= d < n] and [n·d] is even, or
    when 32 pairings in a row stall. *)
val random_regular : rng:Random.State.t -> int -> int -> Structure.t

(** [cfi_pair m] (m ≥ 3) is a Cai–Fürer–Immerman pair over the base
    cycle [C_m]: [(untwisted, twisted)], where each base vertex becomes
    a two-vertex fibre and the twisted variant crosses exactly one base
    edge's fibre connections. Untwisted ≅ [C_m ⊎ C_m], twisted ≅ [C_2m]:
    non-isomorphic 2-regular graphs on [2m] vertices that colour
    refinement (1-WL / C^2) cannot tell apart but 2-WL / C^3 — and the
    3-pebble bijective counting game ({!Fmtk_games.Counting_game}) —
    distinguishes. *)
val cfi_pair : int -> Structure.t * Structure.t
