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

let invariant_key t =
  let self = Wl.canonical_colors t in
  let sorted = Array.to_list self |> List.sort String.compare in
  let sg = Structure.signature t in
  let rel_counts =
    List.map
      (fun (name, _) ->
        Printf.sprintf "%s=%d" name (Structure.rel_count t name))
      (Signature.rels sg)
  in
  let const_colors =
    List.map
      (fun c ->
        Printf.sprintf "%s@%s" c
          (Digest.to_hex self.(Structure.const t c)))
      (List.sort String.compare (Signature.consts sg))
  in
  Printf.sprintf "n%d|%s|%s|%s" (Structure.size t)
    (String.concat "," (List.map Digest.to_hex sorted))
    (String.concat ";" rel_counts)
    (String.concat ";" const_colors)

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
