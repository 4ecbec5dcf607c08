(* Weisfeiler–Leman colour refinement, in one place.

   This module owns every colour-refinement computation of the toolbox:
   the classic 1-dimensional refinement (formerly private copies inside
   [Iso] and [Decide]) and the k-dimensional generalisation on k-tuples
   that is the closed-form companion of the bijective counting game
   ({!Fmtk_games.Counting_game}).

   Power (Cai–Fürer–Immerman): k-WL equivalence coincides with
   agreement on C^{k+1}, first-order logic with counting quantifiers
   restricted to k+1 variables. In particular 1-WL = C^2 and
   2-WL = C^3. The CFI construction ({!Gen.cfi_pair}) witnesses that
   the hierarchy is strict.

   The 1-dimensional refinement runs over the structure's cached CSR
   Gaifman adjacency with no allocation per element: each round builds
   every element's (own colour, sorted neighbour colours) key as a slice
   of a flat int buffer and interns the slices in element order
   ({!Slice_tbl}). Key building shards across domains by contiguous
   vertex range ({!Shard.ranges}), into one buffer laid out like the
   CSR rows; interning stays sequential, so colour ids are assigned in
   element order and the result is byte-identical for every worker
   count. *)

module Signature = Fmtk_logic.Signature
module Budget = Fmtk_runtime.Budget
module Shard = Fmtk_runtime.Shard

(* ---- interning ---- *)

(* First-occurrence interner for names (shared across the two structures
   of a joint run) and for k-WL's string colours. *)
let make_interner () =
  let table = Hashtbl.create 64 in
  let next = ref 0 in
  fun s ->
    match Hashtbl.find_opt table s with
    | Some c -> c
    | None ->
        let c = !next in
        incr next;
        Hashtbl.add table s c;
        c

(* ---- 1-WL: colour refinement over the Gaifman graph ---- *)

(* Initial colours of [t]'s elements, interned in element order into
   [tbl] and written to [colors.(at + e)]. An element's key: for every
   relation (in signature order) an interned name id, the element's
   per-position occurrence counts — for a nullary relation, whether it
   holds — and [-1]; then a [-2]-tagged interned mark per constant
   naming the element, in signature order. The counts live in one flat
   array per relation, and each key is assembled in one scratch buffer.
   [name_id] is shared across the two structures of a joint run so
   their keys stay comparable. *)
let initial_colors tbl name_id t colors ~at =
  let n = Structure.size t in
  let sg = Structure.signature t in
  let rels = Array.of_list (Signature.rels sg) in
  let nids = Array.map (fun (name, _) -> name_id name) rels in
  let slots = Array.map (fun (_, k) -> max k 1) rels in
  let counts =
    Array.map
      (fun (name, k) ->
        let c = Array.make (n * max k 1) 0 in
        (match k with
        | 0 -> if Structure.rel_count t name > 0 then Array.fill c 0 n 1
        | 2 ->
            Structure.iter_rel2 t name (fun u v ->
                c.(2 * u) <- c.(2 * u) + 1;
                c.((2 * v) + 1) <- c.((2 * v) + 1) + 1)
        | _ ->
            Structure.iter_rel t name
              (Array.iteri (fun i e -> c.((e * k) + i) <- c.((e * k) + i) + 1)));
        c)
      rels
  in
  let consts = Signature.consts sg in
  let const_elt = Array.of_list (List.map (Structure.const t) consts) in
  let const_id = Array.of_list (List.map (fun c -> name_id ("@" ^ c)) consts) in
  let key =
    Array.make
      (Array.fold_left (fun acc k -> acc + k + 2) 0 slots
      + (2 * Array.length const_elt))
      0
  in
  for e = 0 to n - 1 do
    let len = ref 0 in
    for r = 0 to Array.length rels - 1 do
      let k = slots.(r) in
      key.(!len) <- nids.(r);
      Array.blit counts.(r) (e * k) key (!len + 1) k;
      key.(!len + k + 1) <- -1;
      len := !len + k + 2
    done;
    for j = 0 to Array.length const_elt - 1 do
      if const_elt.(j) = e then begin
        key.(!len) <- -2;
        key.(!len + 1) <- const_id.(j);
        len := !len + 2
      end
    done;
    colors.(at + e) <- Slice_tbl.intern tbl key 0 !len
  done

(* Refinement over CSR adjacency [g] from [colors], whose [count]
   distinct colours are interned in [tbl]: iterate until the number of
   colour classes stops growing. Per round, the key of [u] is its colour
   followed by the sorted colours of its Gaifman neighbours; [tbl] is
   cleared, the keys are interned in element order, and the two colour
   arrays swap. A sequential round builds each key in one row-sized
   scratch buffer and interns it at once. A sharded round builds every
   key in one buffer laid out like [g]'s rows ([u]'s key starts at
   [row_start u + u]), by contiguous vertex range, then interns them
   sequentially. *)
let refine_csr ~workers ~budget g tbl colors count =
  let n = Csr.nodes g in
  let tg = Csr.targets g in
  let sharded = fst (Shard.plan ~workers ~n) > 1 in
  let keys =
    Array.make (if sharded then Csr.edge_count g + n else Csr.max_degree g + 1) 0
  in
  (* Write [u]'s key under colouring [c] at [keys.(at)]; its length. *)
  let write c u at =
    let s = Csr.row_start g u and t = Csr.row_end g u in
    keys.(at) <- c.(u);
    for i = s to t - 1 do
      keys.(at + 1 + i - s) <- c.(tg.(i))
    done;
    Csr.sort_slice keys (at + 1) (at + 1 + t - s);
    t - s + 1
  in
  let cur = ref colors and next = ref (Array.make n 0) in
  let rec loop count =
    let c = !cur and nx = !next in
    Slice_tbl.clear tbl;
    Shard.ranges ~workers ~budget ~n (fun poller ~stop ~idx:_ ~lo ~hi ->
        let u = ref lo in
        while !u < hi && not (stop ()) do
          Budget.check poller;
          let e = !u in
          if sharded then ignore (write c e (Csr.row_start g e + e))
          else nx.(e) <- Slice_tbl.intern tbl keys 0 (write c e 0);
          incr u
        done);
    if sharded then
      for e = 0 to n - 1 do
        let s = Csr.row_start g e in
        nx.(e) <- Slice_tbl.intern tbl keys (s + e) (Csr.row_end g e - s + 1)
      done;
    cur := nx;
    next := c;
    let count' = Slice_tbl.length tbl in
    if count' > count then loop count'
  in
  loop count;
  !cur

let refine ?(workers = 1) ?(budget = Budget.unlimited) t =
  let g = Structure.gaifman_csr t and tbl = Slice_tbl.create () in
  let colors = Array.make (Structure.size t) 0 in
  initial_colors tbl (make_interner ()) t colors ~at:0;
  refine_csr ~workers ~budget g tbl colors (Slice_tbl.length tbl)

let colors_joint ?(workers = 1) ?(budget = Budget.unlimited) a b =
  let na = Structure.size a and nb = Structure.size b in
  (* Combined node space: a-nodes first, then b-nodes. *)
  let g = Csr.append (Structure.gaifman_csr a) (Structure.gaifman_csr b) in
  let name_id = make_interner () and tbl = Slice_tbl.create () in
  let colors = Array.make (na + nb) 0 in
  initial_colors tbl name_id a colors ~at:0;
  initial_colors tbl name_id b colors ~at:na;
  let final = refine_csr ~workers ~budget g tbl colors (Slice_tbl.length tbl) in
  (Array.sub final 0 na, Array.sub final na nb)

let census_pair (ca, cb) =
  let sorted arr = List.sort Int.compare (Array.to_list arr) in
  sorted ca = sorted cb

let census_equal1 a b = census_pair (colors_joint a b)

(* ---- k-WL: refinement on k-tuples ---- *)

(* Tuples of one structure are numbered in base n: the tuple
   (v_0, .., v_{k-1}) has id Σ v_i · n^(k-1-i). Substituting element [w]
   at position [i] moves the id by (w - v_i) · n^(k-1-i), so the
   refinement loop never materialises tuples. *)

let pow n k =
  let rec go acc k = if k = 0 then acc else go (acc * n) (k - 1) in
  go 1 k

(* Atomic type of the ordered tuple [tup] in [t]: the equality pattern,
   every relation probed at every position map, and constant hits. Two
   tuples get equal strings iff the map v_i ↦ w_i is a partial
   isomorphism between their induced ordered substructures. *)
let atomic_type t tup =
  let k = Array.length tup in
  let buf = Buffer.create 64 in
  for i = 0 to k - 1 do
    for j = i + 1 to k - 1 do
      Buffer.add_char buf (if tup.(i) = tup.(j) then '=' else '.')
    done
  done;
  let sg = Structure.signature t in
  List.iter
    (fun (name, r) ->
      Buffer.add_string buf name;
      let sel = Array.make (max r 1) 0 in
      let args = Array.make r 0 in
      let rec go i =
        if i = r then begin
          for j = 0 to r - 1 do
            args.(j) <- tup.(sel.(j))
          done;
          Buffer.add_char buf (if Structure.probe t name args then '1' else '0')
        end
        else
          for p = 0 to k - 1 do
            sel.(i) <- p;
            go (i + 1)
          done
      in
      go 0;
      Buffer.add_char buf ';')
    (Signature.rels sg);
  List.iter
    (fun c ->
      let e = Structure.const t c in
      Buffer.add_char buf '@';
      Array.iter (fun v -> Buffer.add_char buf (if v = e then '1' else '0')) tup)
    (List.sort String.compare (Signature.consts sg));
  Buffer.contents buf

let colors_k ?(budget = Budget.unlimited) ~k a b =
  if k < 1 then invalid_arg "Wl.colors_k: dimension must be >= 1";
  if k = 1 then colors_joint ~budget a b
  else begin
    let poller = Budget.poller budget in
    let na = Structure.size a and nb = Structure.size b in
    let ta = pow na k and tb = pow nb k in
    let decode n id =
      let tup = Array.make k 0 in
      let rest = ref id in
      for i = k - 1 downto 0 do
        tup.(i) <- !rest mod n;
        rest := !rest / n
      done;
      tup
    in
    (* Initial colours: interned atomic types, joint numbering. *)
    let init t n count =
      Array.init count (fun id ->
          Budget.check poller;
          atomic_type t (decode n id))
    in
    let intern = make_interner () in
    let ca = ref (Array.map intern (init a na ta))
    and cb = ref (Array.map intern (init b nb tb)) in
    let distinct2 ca cb =
      let seen = Hashtbl.create 64 in
      Array.iter (fun c -> Hashtbl.replace seen c ()) ca;
      Array.iter (fun c -> Hashtbl.replace seen c ()) cb;
      Hashtbl.length seen
    in
    (* One refinement round in one structure: the new colour of a tuple
       is its old colour plus the sorted multiset, over all elements w,
       of the k-vector of colours of the tuples with w substituted at
       each position. *)
    let step n count cur =
      let pows = Array.init k (fun i -> pow n (k - 1 - i)) in
      Array.init count (fun id ->
          Budget.check poller;
          let tup = decode n id in
          let subs =
            List.init n (fun w ->
                let parts =
                  Array.to_list
                    (Array.init k (fun i ->
                         string_of_int
                           cur.(id + ((w - tup.(i)) * pows.(i)))))
                in
                String.concat "." parts)
          in
          Printf.sprintf "%d|%s" cur.(id)
            (String.concat "," (List.sort String.compare subs)))
    in
    let rec refine count =
      let intern = make_interner () in
      let sa = step na ta !ca and sb = step nb tb !cb in
      let next_a = Array.map intern sa and next_b = Array.map intern sb in
      let count' = distinct2 next_a next_b in
      ca := next_a;
      cb := next_b;
      if count' > count then refine count'
    in
    refine (distinct2 !ca !cb);
    (!ca, !cb)
  end

let equiv ?budget ~k a b = census_pair (colors_k ?budget ~k a b)
