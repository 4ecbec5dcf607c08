(** The server's query cache, shared across worker domains.

    Two tables under one mutex:

    - a {e parse table} keyed by (signature, formula text): the
      validated {!Fmtk_logic.Formula.t} for a source string against a
      vocabulary — repeated queries skip the parser, and distinct
      structures over one vocabulary share the parse;
    - an {e entry table} keyed by (store name, formula text, {!kind}),
      holding the artifact of that kind: a compiled closure
      ([`Compiled], the slot-numbered closure tree of
      {!Fmtk_eval.Compiled}, which captures the structure's membership
      indexes) or a maintained plan ([`Plan], a {!Fmtk_db.Delta}
      materialization: the full answer with derivation counts, pushed
      forward by {!apply_update} instead of rebuilt).

    Every entry is bound to the {e physical identity} of the structure
    value it was built from; a probe with any other value misses and
    rebuilds. Plan entries are also bound to the store's per-name
    mutation sequence number ({!Store.get_seq}). Propagation runs
    outside the store's critical section, so the sequence number is what
    keeps a maintained hit sound under concurrency: each plan accepts
    exactly the delta numbered one past the state it describes, ignores
    deltas it already reflects, and drops itself when it observes a gap.

    Compiled closures reuse internal scratch buffers and plans are
    mutated by maintenance, so each entry carries its own lock and the
    caller's function runs under it: two workers racing on one entry
    serialize on that entry only.

    Each table holds at most [capacity] keys; at capacity a miss evicts
    the single least recently used key of its table. *)

module Formula := Fmtk_logic.Formula
module Structure := Fmtk_structure.Structure
module Compiled := Fmtk_eval.Compiled
module Relation := Fmtk_db.Relation
module Budget := Fmtk_runtime.Budget

type t

(** The artifact an entry holds; {!hits} and {!misses} count each kind
    apart. *)
type kind = [ `Compiled | `Plan ]

(** [capacity] (default 512) bounds each of the two tables. *)
val create : ?capacity:int -> unit -> t

(** [formula t sg text] — parse-table lookup of [text] against
    signature [sg]; parses (and validates relation arities) on a miss.
    Vocabulary errors are cached too. *)
val formula :
  t -> Fmtk_logic.Signature.t -> string -> (Formula.t, string) result

(** [with_compiled t ~sname s text phi f] runs [f] on the closure
    compiled from [phi] against [s] (bound to store name [sname]),
    compiling on a miss, under the entry's lock.
    @raise Invalid_argument when compilation rejects the formula (an
    uninterpreted relation/constant); nothing is cached in that case. *)
val with_compiled :
  t ->
  sname:string ->
  Structure.t ->
  string ->
  Formula.t ->
  (Compiled.t -> 'a) ->
  'a

(** [with_result t ~sname ~seq s text phi f] answers [phi] from the
    maintained materialization (building it on a miss, budget-governed),
    applying [f vars answers] under the entry's lock. On a hit [answers]
    is the plan's own maintained relation ({!Fmtk_db.Delta.result}), not
    a copy: its {!Relation.cardinality} is O(1) and its smallest tuples
    come first, so [f] can count and sample it in O(sample). [(s, seq)]
    must be a pair read atomically by {!Store.get_seq}: a rebuilt entry
    is bound to [seq] so later deltas slot in at [seq + 1]. [Error] on
    planner or materialization failure; nothing is cached then. *)
val with_result :
  ?budget:Budget.t ->
  t ->
  sname:string ->
  seq:int ->
  Structure.t ->
  string ->
  Formula.t ->
  (string list -> Relation.t -> 'a) ->
  ('a, string) result

(** [apply_update t ~sname ~seq s' ~rel tup ~add] carries every entry
    under [sname] over one committed store update: compiled closures are
    dropped (they captured the old value's indexes), and each plan is
    delta-maintained and re-bound to [s'] (the store's new value). [seq]
    is the sequence number {!Store.update} assigned to this mutation;
    plans apply deltas strictly in sequence order — anything already
    applied is skipped, a gap or a failed propagation drops the plan.
    Stale answers are never served. *)
val apply_update :
  ?budget:Budget.t ->
  t ->
  sname:string ->
  seq:int ->
  Structure.t ->
  rel:string ->
  int array ->
  add:bool ->
  unit

(** Drop every entry, of both kinds, under a store name (on [load] and
    [drop]: the name no longer denotes the value they were built from). *)
val invalidate : t -> sname:string -> unit

(** Entry-table probes that found a usable entry, of [kind] or (default)
    of both kinds. *)
val hits : ?kind:kind -> t -> int

(** Entry-table probes that had to build. *)
val misses : ?kind:kind -> t -> int

(** Delta propagations applied (one per maintained plan per update). *)
val maintained : t -> int
