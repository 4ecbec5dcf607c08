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

(* Enumerates arity-[k] tuples over the element list [dom]; when [pivot] is
   given, only tuples containing it. *)
let tuples_over dom k ~pivot =
  let dom = Array.of_list dom in
  let n = Array.length dom in
  let acc = ref [] in
  let tup = Array.make k 0 in
  let rec go i has_pivot =
    if i = k then (
      match pivot with
      | Some p when not has_pivot -> ignore p
      | _ -> acc := Array.copy tup :: !acc)
    else
      for j = 0 to n - 1 do
        tup.(i) <- dom.(j);
        go (i + 1) (has_pivot || Some dom.(j) = pivot)
      done
  in
  if k > 0 && n = 0 then []
  else (
    go 0 false;
    !acc)

(* Does [fwd] preserve and reflect every relation of [sg] (empty where
   undeclared) on the tuples over [doms] containing [pivot], if given? *)
let rels_agree sg a b fwd doms ~pivot =
  let sa = Structure.signature a and sb = Structure.signature b in
  List.for_all
    (fun (name, k) ->
      let in_a = sa == sg || Signature.mem_rel sa name
      and in_b = sb == sg || Signature.mem_rel sb name in
      List.for_all
        (fun t ->
          (in_a && Structure.probe a name t)
          = (in_b && Structure.probe b name (Array.map (Hashtbl.find fwd) t)))
        (tuples_over doms k ~pivot))
    (Signature.rels sg)

let partial_iso a b pairs =
  let sg = joint_signature a b in
  match build_map (const_pairs sg a b @ pairs) with
  | None -> false
  | Some fwd ->
      let doms = Hashtbl.fold (fun x _ acc -> x :: acc) fwd [] in
      rels_agree sg a b fwd (List.sort_uniq Int.compare doms) ~pivot:None

let extension_ok a b pairs (x, y) =
  let sg = joint_signature a b in
  match build_map (const_pairs sg a b @ pairs) with
  | None -> false
  | Some fwd -> (
      match Hashtbl.find_opt fwd x with
      | Some y' -> y = y' (* repeated pebble: nothing new to check *)
      | None ->
          let hit = Hashtbl.fold (fun _ y' acc -> acc || y = y') fwd false in
          if hit then false
          else (
            Hashtbl.add fwd x y;
            let doms =
              List.sort_uniq Int.compare
                (x :: Hashtbl.fold (fun e _ acc -> e :: acc) fwd [])
            in
            rels_agree sg a b fwd doms ~pivot:(Some x)))

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
    let const_pairs = const_pairs (Structure.signature a) a b in
    if not (partial_iso a b []) then None
    else
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
                  && extension_ok a b pairs (x, y)
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
        if search const_pairs order then Some assignment else None

let isomorphic a b = Option.is_some (find_iso a b)
