(** O(1)-probe membership indexes for relation tuple sets.

    A {!Tuple.Set.t} answers membership in [O(arity · log m)] array
    comparisons; the hot paths (the compiled evaluator, the EF solver's
    partial-isomorphism checks, semijoin filtering in the relational
    algebra) instead probe one of these indexes: a Bytes-backed bitset for
    small arity-[<= 2] spaces, a hashtable keyed on the tuple packed into a
    single int for higher arities, and a tuple-keyed hashtable when the
    packing would overflow. Indexes are built once per relation and cached
    on the owning {!Structure.t}. *)

type t

(** [build ~size ~arity tuples] indexes [tuples] (all of arity [arity] over
    domain [0..size-1]). *)
val build : size:int -> arity:int -> Tuple.Set.t -> t

(** Like {!build} but with the domain bound inferred from the tuples
    themselves — for indexing derived tuple sets (e.g. join operands) with
    no structure at hand. *)
val of_tuples : arity:int -> Tuple.Set.t -> t

(** Zero-copy index over a CSR-backed binary relation: probes are a
    binary search in the sorted row (O(log degree)). This is how
    CSR-backed structures answer {!Structure.probe} without ever
    materializing a tuple set or hashtable. *)
val of_csr : Csr.t -> t

val arity : t -> int

(** [mem t tup] — membership; [false] (never an exception) when [tup] has
    the wrong arity or mentions out-of-domain elements. *)
val mem : t -> int array -> bool

(** Allocation-free unary probe: [mem1 t e = mem t [|e|]]. *)
val mem1 : t -> int -> bool

(** Allocation-free binary probe: [mem2 t x y = mem t [|x;y|]]. *)
val mem2 : t -> int -> int -> bool

(** {1 Access paths}

    Hooks for the query planner ({!Fmtk_db}): beyond membership probes, an
    index may support enumerating the tuples matching a bound prefix. *)

(** The CSR rows behind a {!of_csr} index, if that is the representation —
    the access path for index-nested-loop joins over large binary
    relations, and the forward rows a guarded quantifier of
    [Fmtk_eval.Compiled] walks. *)
val rows : t -> Csr.t option

(** [iter_row1 t x f] enumerates all [y] with [(x, y)] in the indexed
    relation, in sorted order. Only available on CSR-backed indexes.
    @raise Invalid_argument otherwise (check {!rows} first). *)
val iter_row1 : t -> int -> (int -> unit) -> unit
