(** Packed game positions, shared by every {!Engine} instance (EF,
    pebble, counting games).

    A position's pebbled pairs are packed into a sorted, deduplicated
    [int array]: the pair [(x, y)] becomes the single word
    [x * span + y], where [span = max 1 (size b)] is fixed per solve, so
    packing is injective. Sortedness makes the
    representation canonical — positions are sets of pairs, so any play
    order reaching the same set yields the same array.

    Memo keys prepend the remaining round count:

    {v [| rounds; p_1; ...; p_m |]   with p_1 < ... < p_m packed pairs v}

    Key equality is a word-by-word int scan and hashing never walks list
    spines or boxes — this representation replaced the seed's
    polymorphic-compare [(int, (int * int) list)] keys and is what makes
    the kernel's sharded memo cheap enough to share across domains. *)

module Key : sig
  type t = int array

  (** Structural equality specialised to int arrays (no polymorphic
      compare). *)
  val equal : t -> t -> bool

  (** Order-sensitive multiplicative hash; safe for physical int
      contents only. *)
  val hash : t -> int
end

(** Hash tables keyed by packed keys — the kernel's memo shards. *)
module Tbl : Hashtbl.S with type key = Key.t

(** [insert packed p] — sorted-set insert of one packed pair; returns
    [packed] itself (physically) when [p] is already present, i.e. a
    repeated pebble pair collapses. Positions hold at most a handful of
    pairs, so the copy is tiny. *)
val insert : int array -> int -> int array

(** [remove packed i] — the position with its [i]-th pair (an index
    into the array, not a packed value) lifted. *)
val remove : int array -> int -> int array

(** [key ~rounds packed] — the memo key: round count, then the position.
    Fresh array; never aliases [packed]. *)
val key : rounds:int -> int array -> Key.t

(** [of_pairs ~span pairs] packs, sorts and deduplicates. All elements
    of the second structure must satisfy [y < span] (and [span >= 1]) or
    packing would collide. *)
val of_pairs : span:int -> (int * int) list -> int array
