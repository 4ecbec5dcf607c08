(** The server's named-structure store, optionally durable.

    A mutex-guarded map from names to structures, shared by every
    connection and worker domain. Structures are fully indexed on
    insertion ({!Fmtk_structure.Structure.ensure_indexes}), so reads
    from worker domains are lock-free and mutation-free; replacing a
    name leaves requests already holding the old structure unaffected
    (values are immutable once indexed).

    {2 Durability}

    {!open_durable} backs the store with a {!Journal} and periodic
    {!Snapshot}s under a data directory. Every mutation ({!put},
    {!remove}) is appended to the journal {e before} it becomes visible
    and before the call returns, so a successful return — the server's
    ack — means the mutation survives [kill -9], modulo the configured
    {!sync_policy}:

    - [Always]: [fsync] before every ack — no acked mutation is ever
      lost.
    - [Interval n]: [fsync] every [n] mutations — at most [n-1] acked
      mutations are lost to a crash (power-loss model; a plain process
      kill loses nothing, the data is in the page cache).
    - [Never]: durability is left to the OS writeback.

    When the journal grows past [snapshot_threshold] bytes the store
    compacts: the full table is written as an atomic {!Snapshot} and the
    journal is truncated. Recovery loads the snapshot, replays the
    journal tail, truncates a torn final record, and {e refuses} (the
    [Error] case of {!open_durable}) on damage a crash cannot produce —
    see {!Journal} for the classification.

    After a real IO failure mid-append the journal's tail is
    untrustworthy, so the store turns read-only: further mutations
    return [Io] rather than risk acking writes that are not journaled. *)

module Structure = Fmtk_structure.Structure

type t

type sync_policy = Always | Interval of int | Never

val sync_policy_of_string : string -> (sync_policy, string) result

val sync_policy_to_string : sync_policy -> string

(** Why a {!put} was refused — distinct codes so clients can tell a
    capacity condition (retry after a [drop]) from an oversized payload
    (never retry) from an IO failure (operator problem). *)
type put_error =
  | Full of string  (** store at capacity and [name] is fresh *)
  | Too_large of string  (** structure exceeds the per-structure bound *)
  | Io of string  (** journal append/sync failed; store is read-only *)

val put_error_to_string : put_error -> string

(** What recovery found, for operator-facing stats. *)
type recovery = {
  snapshot_records : int;  (** structures loaded from the snapshot *)
  journal_records : int;  (** mutations replayed from the journal *)
  torn_bytes : int;  (** bytes of torn final record truncated (0 = clean) *)
  recovery_ms : float;
}

type durability_stats = {
  data_dir : string;
  sync : sync_policy;
  journaled : int;  (** mutations journaled since open *)
  journal_bytes : int;  (** current journal size *)
  compactions : int;  (** snapshots written since open *)
  recovered : recovery;
}

(** [create ()] — an in-memory store: at most [capacity] named
    structures (default 256), and per structure at most [max_size]
    elements (default 100_000) and {!max_tuples} tuples: past any bound,
    {!put} refuses rather than letting one client evict the working set
    or exhaust memory. *)
val create : ?capacity:int -> ?max_size:int -> unit -> t

(** Tuples per structure: 1_000_000. It admits every bounded-degree
    generator ([torus], [chorded], [regular] up to degree 10) at the
    element cap; a tuple-set structure this large costs about 200 MB. *)
val max_tuples : int

(** [admit t ~size ~tuples] — [Error (Too_large _)] when a structure of
    [size] elements or [tuples] tuples exceeds the bounds {!put}
    enforces. Lets a caller refuse a structure from its declared sizes
    (a generator's arguments, a text's header) before building it. *)
val admit : t -> size:int -> tuples:int -> (unit, put_error) result

(** [open_durable ~dir ()] — a store persisted under [dir] (created if
    absent). Recovers any existing snapshot and journal first; [Error]
    if they are corrupt (the caller should refuse to serve, not start
    empty). [inject] arms deterministic IO faults for crash tests.
    Recovered structures are kept even when they exceed [capacity] or
    a per-structure bound — refusing previously acked data would be data
    loss. *)
val open_durable :
  ?capacity:int ->
  ?max_size:int ->
  ?sync:sync_policy ->
  ?snapshot_threshold:int ->
  ?inject:Fmtk_runtime.Io_fault.t ->
  dir:string ->
  unit ->
  (t * recovery, string) result

(** [put t ~name s] indexes [s], journals the binding (durable stores),
    and binds it to [name], replacing any previous binding. The binding
    is durable per the sync policy once [Ok] is returned. *)
val put : t -> name:string -> Structure.t -> (unit, put_error) result

(** [update t ~name ~rel tup ~add] inserts ([add:true]) or deletes one
    tuple of relation [rel] of the structure bound to [name]. The
    read-modify-write is atomic (serialized under the store mutex) and
    the resulting structure is journaled like a {!put}. Returns the new
    binding, [true] when the store changed — inserting a present tuple
    or deleting an absent one is an acknowledged no-op ([false]), so the
    caller can skip cache maintenance — and the name's mutation sequence
    number. The sequence is assigned under the store mutex, so its order
    {e is} commit order: callers maintaining derived state outside this
    critical section (e.g. {!Qcache.apply_update}) use it to detect
    reordered or missed deltas. Validation is total: unknown names,
    undeclared relations, arity mismatches and out-of-domain coordinates
    are [Error]s, never exceptions. *)
val update :
  t ->
  name:string ->
  rel:string ->
  int array ->
  add:bool ->
  ( Structure.t * bool * int,
    [ `Unknown of string | `Invalid of string | `Io of string ] )
  result

(** [remove t name] journals and removes the binding. [Ok false] when
    [name] is not bound (nothing is journaled); [Error] on a journal IO
    failure. *)
val remove : t -> string -> (bool, string) result

val get : t -> string -> Structure.t option

(** [get_seq t name] reads the binding together with the name's current
    mutation sequence number in one critical section. Every binding
    change ({!put}, a changed {!update}) bumps the sequence, and it is
    never reset — not even when the name is {!remove}d and re-bound — so
    a [(value, seq)] pair uniquely identifies a store state of [name]. *)
val get_seq : t -> string -> (Structure.t * int) option

(** [(name, size)] pairs, sorted by name. *)
val names : t -> (string * int) list

val count : t -> int

(** Force a compaction now (durable stores; [Error] otherwise or on IO
    failure — the journal is untouched on failure). *)
val compact : t -> (unit, string) result

(** [None] for in-memory stores. *)
val durability_stats : t -> durability_stats option

(** Flush and close the journal. The store stays readable; further
    mutations on a durable store fail. *)
val close : t -> unit
