(* Open addressing with linear probing. Entry [e] (numbered in insertion
   order) keeps its key in the arena at [offs.(e) .. offs.(e + 1) - 1],
   its full hash in [hashes.(e)] and its value in [values.(e)]; a slot
   holds an entry number, or -1 when empty. The slot array stays at most
   half full. Every loop below is a [while] over local refs, so a probe
   allocates nothing. *)

type t = {
  mutable slots : int array;
  mutable hashes : int array;
  mutable values : int array;
  mutable offs : int array;
  mutable arena : int array;
  mutable count : int;
}

let create () =
  {
    slots = Array.make 16 (-1);
    hashes = Array.make 8 0;
    values = Array.make 8 0;
    offs = Array.make 9 0;
    arena = Array.make 64 0;
    count = 0;
  }

let length t = t.count

let clear t =
  Array.fill t.slots 0 (Array.length t.slots) (-1);
  t.count <- 0

(* FNV-1a over the slice. Its low bits depend only on the low bits of
   the key's entries, and the slot is taken from the low bits, so the
   high half is folded in last. *)
let hash buf off len =
  let h = ref 0x811c9dc5 in
  for i = off to off + len - 1 do
    h := (!h lxor buf.(i)) * 0x01000193
  done;
  (!h lxor (!h lsr 32)) land max_int

let same_key t e buf off len =
  let o = t.offs.(e) in
  t.offs.(e + 1) - o = len
  &&
  let i = ref 0 in
  while !i < len && t.arena.(o + !i) = buf.(off + !i) do
    incr i
  done;
  !i = len

(* The slot holding the key, or the empty slot that ends its probe
   run. *)
let slot_of t buf off len h =
  let mask = Array.length t.slots - 1 in
  let i = ref (h land mask) in
  let e = ref t.slots.(!i) in
  while !e >= 0 && not (t.hashes.(!e) = h && same_key t !e buf off len) do
    i := (!i + 1) land mask;
    e := t.slots.(!i)
  done;
  !i

let grow arr len fill =
  let bigger = Array.make (2 * Array.length arr) fill in
  Array.blit arr 0 bigger 0 len;
  bigger

let rehash t =
  let slots = Array.make (2 * Array.length t.slots) (-1) in
  let mask = Array.length slots - 1 in
  for e = 0 to t.count - 1 do
    let i = ref (t.hashes.(e) land mask) in
    while slots.(!i) >= 0 do
      i := (!i + 1) land mask
    done;
    slots.(!i) <- e
  done;
  t.slots <- slots

(* Append the key as entry [count], bound to [v], in empty slot [i]. *)
let insert t i h buf off len v =
  let e = t.count in
  if e = Array.length t.hashes then begin
    t.hashes <- grow t.hashes e 0;
    t.values <- grow t.values e 0;
    t.offs <- grow t.offs (e + 1) 0
  end;
  let o = t.offs.(e) in
  while o + len > Array.length t.arena do
    t.arena <- grow t.arena o 0
  done;
  Array.blit buf off t.arena o len;
  t.offs.(e + 1) <- o + len;
  t.hashes.(e) <- h;
  t.values.(e) <- v;
  t.slots.(i) <- e;
  t.count <- e + 1;
  if 2 * t.count > Array.length t.slots then rehash t

let find t buf off len =
  let e = t.slots.(slot_of t buf off len (hash buf off len)) in
  if e < 0 then -1 else t.values.(e)

let replace t buf off len v =
  if v < 0 then invalid_arg "Slice_tbl.replace: negative value";
  let h = hash buf off len in
  let i = slot_of t buf off len h in
  let e = t.slots.(i) in
  if e >= 0 then t.values.(e) <- v else insert t i h buf off len v

let intern t buf off len =
  let h = hash buf off len in
  let i = slot_of t buf off len h in
  let e = t.slots.(i) in
  if e >= 0 then t.values.(e)
  else begin
    let v = t.count in
    insert t i h buf off len v;
    v
  end

let iter t f =
  for e = 0 to t.count - 1 do
    f t.arena t.offs.(e) (t.offs.(e + 1) - t.offs.(e)) t.values.(e)
  done
