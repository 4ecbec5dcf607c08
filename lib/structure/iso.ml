module Signature = Fmtk_logic.Signature
module Budget = Fmtk_runtime.Budget

(* Equal signatures (one value, or one relation list with equal constants,
   as [Structure.expand_consts] leaves them) skip the clash checks. *)
let joint_signature a b =
  let sa = Structure.signature a and sb = Structure.signature b in
  if
    sa == sb
    || Signature.rels sa == Signature.rels sb
       && Signature.consts sa = Signature.consts sb
  then sa
  else begin
    let clash fmt = Printf.ksprintf invalid_arg ("Iso: " ^^ fmt) in
    List.iter
      (fun c ->
        if not (Signature.mem_const sa c && Signature.mem_const sb c) then
          clash "constant %S is declared on one side only" c)
      (Signature.consts sa @ Signature.consts sb);
    List.iter
      (fun (r, k) ->
        match List.assoc_opt r (Signature.rels sb) with
        | Some k' when k' <> k ->
            clash "relation %S has arity %d on one side, %d on the other" r k k'
        | _ -> ())
      (Signature.rels sa);
    Signature.union sa sb
  end

let const_pairs sg a b =
  List.map
    (fun c -> (Structure.const a c, Structure.const b c))
    (Signature.consts sg)

(* Builds the forward map, failing on non-functional or non-injective pair
   lists. *)
let build_map pairs =
  let fwd = Hashtbl.create 16 and bwd = Hashtbl.create 16 in
  let ok =
    List.for_all
      (fun (x, y) ->
        match (Hashtbl.find_opt fwd x, Hashtbl.find_opt bwd y) with
        | Some y', _ -> y = y'
        | None, Some x' -> x = x'
        | None, None ->
            Hashtbl.add fwd x y;
            Hashtbl.add bwd y x;
            true)
      pairs
  in
  if ok then Some fwd else None

(* The definition: [fwd] (constants included) must preserve and reflect
   every relation of the joint signature, empty where undeclared, on
   every tuple over its domain. *)
let partial_iso a b pairs =
  let sg = joint_signature a b in
  let sa = Structure.signature a and sb = Structure.signature b in
  List.for_all
    (fun (x, y) ->
      x >= 0 && x < Structure.size a && y >= 0 && y < Structure.size b)
    pairs
  &&
  match build_map (const_pairs sg a b @ pairs) with
  | None -> false
  | Some fwd ->
      let dom = Array.of_seq (Hashtbl.to_seq_keys fwd) in
      List.for_all
        (fun (name, k) ->
          let in_a = Signature.mem_rel sa name
          and in_b = Signature.mem_rel sb name in
          Seq.for_all
            (fun idx ->
              let t = Array.map (fun i -> dom.(i)) idx in
              (in_a && Structure.probe a name t)
              = (in_b && Structure.probe b name (Array.map (Hashtbl.find fwd) t)))
            (Tuple.all (Array.length dom) k))
        (Signature.rels sg)

(* ---- The extension check ----

   [extension_ok a b] resolves the joint signature once: per relation of
   arity >= 1 its arity and both sides' membership indexes (an empty one
   where a side does not declare it). The returned check then scans the
   constant pairs and [pairs] for [x] or [y], and probes only the tuples
   through [x] — every helper below takes its operands as arguments, so
   unary and binary signatures allocate nothing per call. *)

type resolved = { arity : int; ia : Index.t; ib : Index.t }

(* How [x ↦ y] meets the pairs already played: as one of them, against
   one that holds [x] or [y] with another partner, or not at all. *)
type meeting = Repeated | Taken | Fresh

let rec meet x y = function
  | [] -> Fresh
  | (u, v) :: rest ->
      if u = x then if v = y then Repeated else Taken
      else if v = y then Taken
      else meet x y rest

let rec unary_agree un x y i =
  i < 0
  || (let r = un.(i) in
      Bool.equal (Index.mem1 r.ia x) (Index.mem1 r.ib y))
     && unary_agree un x y (i - 1)

(* [R(x,u)] and [R(u,x)] against [R(y,v)] and [R(v,y)] for every binary
   relation; [u = x] covers the loop [R(x,x)]. *)
let rec binary_agree bin x y u v i =
  i < 0
  || (let r = bin.(i) in
      Bool.equal (Index.mem2 r.ia x u) (Index.mem2 r.ib y v)
      && Bool.equal (Index.mem2 r.ia u x) (Index.mem2 r.ib v y))
     && binary_agree bin x y u v (i - 1)

let rec binary_pairs bin x y = function
  | [] -> true
  | (u, v) :: rest ->
      binary_agree bin x y u v (Array.length bin - 1)
      && binary_pairs bin x y rest

(* Arity >= 3: every index tuple into [da]/[db] (the new pair at index
   0, then the pebbled pairs) that uses index 0. *)
let higher_agree r da db =
  Seq.for_all
    (fun idx ->
      (not (Array.mem 0 idx))
      || Bool.equal
           (Index.mem r.ia (Array.map (fun i -> da.(i)) idx))
           (Index.mem r.ib (Array.map (fun i -> db.(i)) idx)))
    (Tuple.all (Array.length da) r.arity)

let extension_ok a b =
  let sg = joint_signature a b in
  let index s name k =
    if Signature.mem_rel (Structure.signature s) name then Structure.index s name
    else Index.build ~size:0 ~arity:k Tuple.Set.empty
  in
  let rels =
    List.filter_map
      (fun (name, k) ->
        if k = 0 then None
        else Some { arity = k; ia = index a name k; ib = index b name k })
      (Signature.rels sg)
  in
  let of_arity p = Array.of_list (List.filter p rels) in
  let un = of_arity (fun r -> r.arity = 1)
  and bin = of_arity (fun r -> r.arity = 2)
  and higher = of_arity (fun r -> r.arity >= 3) in
  let consts = const_pairs sg a b in
  let na = Structure.size a and nb = Structure.size b in
  fun pairs (x, y) ->
    x >= 0 && x < na && y >= 0 && y < nb
    &&
    match (match meet x y consts with Fresh -> meet x y pairs | m -> m) with
    | Repeated -> true (* nothing new to check *)
    | Taken -> false
    | Fresh ->
        unary_agree un x y (Array.length un - 1)
        && binary_agree bin x y x y (Array.length bin - 1)
        && binary_pairs bin x y consts
        && binary_pairs bin x y pairs
        && (Array.length higher = 0
           ||
           let pebbled = consts @ pairs in
           let da = Array.of_list (x :: List.map fst pebbled)
           and db = Array.of_list (y :: List.map snd pebbled) in
           Array.for_all (fun r -> higher_agree r da db) higher)

let find_iso ?(budget = Budget.unlimited) a b =
  let poller = Budget.poller budget in
  if Structure.size a <> Structure.size b then None
  else if
    not
      (Signature.equal (Structure.signature a) (Structure.signature b))
  then None
  else
    if not (partial_iso a b []) then None
    else
      (* Scans the constant pairs itself, so the search starts empty. *)
      let extension_ok = extension_ok a b in
      let ca, cb = Wl.colors_joint a b in
      let n = Structure.size a in
      (* Candidate b-elements per a-element, filtered by colour. *)
      let candidates =
        Array.init n (fun x ->
            List.filter (fun y -> cb.(y) = ca.(x)) (Structure.domain b))
      in
      if Array.exists (fun l -> l = []) candidates then None
      else
        let order =
          List.sort
            (fun x x' ->
              Int.compare
                (List.length candidates.(x))
                (List.length candidates.(x')))
            (List.init n Fun.id)
        in
        let assignment = Array.make n (-1) in
        let used = Array.make n false in
        let rec search pairs = function
          | [] -> true
          | x :: rest ->
              List.exists
                (fun y ->
                  Budget.check poller;
                  (not used.(y))
                  && extension_ok pairs (x, y)
                  &&
                  (assignment.(x) <- y;
                   used.(y) <- true;
                   if search ((x, y) :: pairs) rest then true
                   else (
                     assignment.(x) <- -1;
                     used.(y) <- false;
                     false)))
                candidates.(x)
        in
        if search [] order then Some assignment else None

let isomorphic a b = Option.is_some (find_iso a b)

(* ---- Canonical form ----

   A colour is the first position of its cell, so colourings depend on
   content alone. Per tuple of the r-th relation and positions p, q an
   arc labelled (r, p, q) runs from the element at p to the one at q;
   per constant a loop. A round keys each element by its colour and the
   sorted [label * n + colour of the target] of its arcs and recolours
   it by its key's rank. The loops (p = q, constants) only split cells
   in the first round. A leaf equal to the first leaf gives an
   automorphism that maps the subtree where its path left the first one
   onto an explored subtree, so the search resumes there. *)

let canonical ?(budget = Budget.unlimited) t =
  let poller = Budget.poller budget in
  let n = Structure.size t and sg = Structure.signature t in
  let rels =
    List.map
      (fun (name, k) ->
        if k > 0 && float_of_int n ** float_of_int k >= 0x1p62 then
          invalid_arg (Printf.sprintf "Iso.canonical: %S: %d^%d overflows an int" name n k);
        (name, k, Tuple.Set.elements (Structure.rel t name)))
      (List.sort compare (Signature.rels sg))
  and consts =
    List.map (fun c -> (c, Structure.const t c)) (List.sort compare (Signature.consts sg))
  in
  (* An arc is [label * n + target]. *)
  let kmax = List.fold_left (fun acc (_, k, _) -> max acc k) 1 rels in
  let loops = Array.make n [] and moves = Array.make n [] in
  let loop u label = loops.(u) <- ((label * n) + u) :: loops.(u) in
  List.iteri
    (fun r (_, _, tuples) ->
      List.iter
        (fun tup ->
          Array.iteri (fun p u ->
              Array.iteri (fun q v ->
                  let label = (((r * kmax) + p) * kmax) + q in
                  if p = q then loop u label else moves.(u) <- ((label * n) + v) :: moves.(u))
                tup)
            tup)
        tuples)
    rels;
  List.iteri (fun j (_, e) -> loop e ((List.length rels * kmax * kmax) + j)) consts;
  let loops = Array.map Array.of_list loops and moves = Array.map Array.of_list moves in
  let key = Array.make n [||] and order = Array.init n Fun.id in
  (* Recolour [col] in place by the keys over [arcs]; the number of cells. *)
  let round arcs col =
    for u = 0 to n - 1 do
      let a = arcs.(u) in
      let k = Array.make (Array.length a + 1) col.(u) in
      Array.iteri (fun i x -> k.(i + 1) <- x - (x mod n) + col.(x mod n)) a;
      Csr.sort_slice k 1 (Array.length k);
      key.(u) <- k
    done;
    Array.stable_sort (fun u v -> compare key.(u) key.(v)) order;
    let cells = ref 0 in
    Array.iteri
      (fun i u ->
        let same = i > 0 && key.(order.(i - 1)) = key.(u) in
        col.(u) <- (if same then col.(order.(i - 1)) else i);
        if not same then incr cells)
      order;
    !cells
  in
  let rec refine col cells =
    let cells' = if cells = n then n else round moves col in
    if cells' > cells then refine col cells' else cells
  in
  let certificate lab =
    let name s = String.length s :: List.init (String.length s) (fun i -> Char.code s.[i]) in
    let relabelled tuples =
      let codes =
        Array.of_list (List.map (Array.fold_left (fun acc e -> (acc * n) + lab.(e)) 0) tuples)
      in
      Csr.sort_slice codes 0 (Array.length codes);
      Array.length codes :: Array.to_list codes
    in
    Array.of_list
      ((n :: List.concat_map (fun (r, k, tuples) -> name r @ (k :: relabelled tuples)) rels)
      @ List.concat_map (fun (c, e) -> name c @ [ lab.(e) ]) consts)
  in
  (* The first leaf (certificate, inverse labelling, path), the best
     leaf, and the automorphisms found so far. *)
  let first = ref None and best = ref ([||], [||]) and auts = ref [] in
  let path = Array.make n 0 in
  (* Returns the depth the search resumes at: where the path left the
     first path, or [max_int]. *)
  let leaf depth lab =
    let cert = certificate lab and inv = Array.make n 0 in
    Array.iteri (fun u l -> inv.(l) <- u) lab;
    let aut inv' = auts := Array.map (fun l -> inv'.(l)) lab :: !auts in
    match !first with
    | None ->
        first := Some (cert, inv, Array.sub path 0 depth);
        best := (cert, inv);
        max_int
    | Some (cert1, inv1, path1) when cert = cert1 ->
        aut inv1;
        let rec diverge d = if path.(d) = path1.(d) then diverge (d + 1) else d in
        diverge 0
    | Some _ ->
        let cert', inv' = !best in
        let c = compare cert cert' in
        if c < 0 then best := (cert, inv) else if c = 0 then aut inv';
        max_int
  in
  let rec node depth col cells =
    Budget.check poller;
    if cells = n then leaf depth col
    else begin
      let size = Array.make n 0 and s = ref (-1) in
      Array.iter (fun c -> size.(c) <- size.(c) + 1) col;
      Array.iteri (fun c k -> if k > 1 && (!s < 0 || k < size.(!s)) then s := c) size;
      let s = !s in
      (* Whether [v]'s orbit under the automorphisms fixing the path
         meets [explored]. *)
      let pruned explored v =
        let rec fixes g i = i = depth || (g.(path.(i)) = path.(i) && fixes g (i + 1)) in
        let gens = List.filter (fun g -> fixes g 0) !auts and seen = Array.make n false in
        let rec visit x =
          if not seen.(x) then (seen.(x) <- true; List.iter (fun g -> visit g.(x)) gens)
        in
        visit v;
        List.exists (fun u -> seen.(u)) explored
      in
      let rec children v explored =
        if v = n then max_int
        else if col.(v) <> s || (explored <> [] && pruned explored v) then
          children (v + 1) explored
        else begin
          path.(depth) <- v;
          let col' = Array.map (fun x -> if x = s then s + 1 else x) col in
          col'.(v) <- s;
          let j = node (depth + 1) col' (refine col' (cells + 1)) in
          if j < depth then j else children (v + 1) (v :: explored)
        end
      in
      children 0 []
    end
  in
  let col = Array.make n 0 in
  ignore (node 0 col (refine col (round loops col)));
  fst !best
