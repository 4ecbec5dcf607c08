(* Packed game positions, the board's memo key material.

   A position is a sorted, deduplicated int array of pebble pairs packed
   as [x * span + y]; memo keys prepend the round count. Equality is a
   word-by-word int scan and hashing never walks list spines — this
   replaced the old polymorphic-compare keys [(int, (int * int) list)]. *)

module Key = struct
  type t = int array

  let equal (a : int array) b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash (a : int array) =
    Array.fold_left (fun h x -> ((h * 486187739) + x) land max_int) 17 a
end

module Tbl = Hashtbl.Make (Key)

(* [insert packed p] — sorted-set insert; returns [packed] itself when [p]
   is already present (a repeated pebble pair). Positions hold at most a
   handful of pairs, so the copy is tiny. *)
let insert packed p =
  let len = Array.length packed in
  let rec find i = if i = len || packed.(i) >= p then i else find (i + 1) in
  let i = find 0 in
  if i < len && packed.(i) = p then packed
  else begin
    let out = Array.make (len + 1) p in
    Array.blit packed 0 out 0 i;
    Array.blit packed i out (i + 1) (len - i);
    out
  end

(* [remove packed i] — the position with the [i]-th pair lifted. *)
let remove packed i =
  let len = Array.length packed in
  let out = Array.make (len - 1) 0 in
  Array.blit packed 0 out 0 i;
  Array.blit packed (i + 1) out i (len - 1 - i);
  out

(* [key ~rounds packed] — memo key: round count then the position. *)
let key ~rounds packed = Array.append [| rounds |] packed

let of_pairs ~span pairs =
  Array.of_list
    (List.sort_uniq Int.compare
       (List.map (fun (x, y) -> (x * span) + y) pairs))
