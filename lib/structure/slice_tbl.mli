(** Hash tables keyed by slices of int buffers.

    The locality kernels key their tables by flat int sequences: 1-WL
    interns each vertex's (own colour, sorted neighbour colours) key, and
    the neighbourhood census caches ball serializations. Both build the
    key in a scratch buffer. This table probes with a slice
    [(buf, off, len)] of such a buffer and allocates nothing on a probe;
    it copies a key into its own arena only when it inserts it.

    Open addressing with linear probing over a power-of-two slot array.
    Keys are hashed whole with FNV-1a: the polymorphic [Hashtbl.hash]
    inspects only a bounded number of words, which would collapse long
    keys (high-degree neighbourhood multisets, large balls) into a
    handful of buckets. Values are non-negative ints. Not thread-safe. *)

type t

(** [create ()] — an empty table; it grows as keys are added. *)
val create : unit -> t

(** Number of keys. *)
val length : t -> int

(** Remove every key, keeping the allocated capacity. *)
val clear : t -> unit

(** [find t buf off len] — the value bound to the key
    [buf.(off) .. buf.(off + len - 1)], or [-1] when absent. *)
val find : t -> int array -> int -> int -> int

(** [replace t buf off len v] binds the slice's key to [v], which must
    be non-negative, replacing any earlier binding. A new key is copied
    into the table.
    @raise Invalid_argument if [v < 0]. *)
val replace : t -> int array -> int -> int -> int -> unit

(** [intern t buf off len] — the value bound to the slice, binding it
    first to [length t] when absent: first-occurrence numbering. *)
val intern : t -> int array -> int -> int -> int

(** [iter t f] calls [f keys off len v] for every binding, in insertion
    order; the key is [keys.(off) .. keys.(off + len - 1)]. [f] must not
    modify [t]. *)
val iter : t -> (int array -> int -> int -> int -> unit) -> unit
