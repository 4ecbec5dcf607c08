module Signature = Fmtk_logic.Signature
module Budget = Fmtk_runtime.Budget

let shared_const_pairs a b =
  let ca = Signature.consts (Structure.signature a) in
  List.filter_map
    (fun name ->
      if Signature.mem_const (Structure.signature b) name then
        Some (Structure.const a name, Structure.const b name)
      else None)
    ca

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

let rels_agree a b fwd doms =
  let sig_a = Structure.signature a and sig_b = Structure.signature b in
  List.for_all
    (fun (name, k) ->
      Signature.mem_rel sig_b name
      && Signature.arity sig_b name = k
      &&
      let tuples = tuples_over doms k ~pivot:None in
      List.for_all
        (fun t ->
          Structure.probe a name t
          = Structure.probe b name (Array.map (Hashtbl.find fwd) t))
        tuples)
    (Signature.rels sig_a)

let partial_iso a b pairs =
  let all = shared_const_pairs a b @ pairs in
  match build_map all with
  | None -> false
  | Some fwd ->
      let doms = Hashtbl.fold (fun x _ acc -> x :: acc) fwd [] in
      let doms = List.sort_uniq Int.compare doms in
      rels_agree a b fwd doms

let extension_ok a b pairs (x, y) =
  let all = shared_const_pairs a b @ pairs in
  match build_map all with
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
            let sig_a = Structure.signature a in
            List.for_all
              (fun (name, k) ->
                let tuples = tuples_over doms k ~pivot:(Some x) in
                List.for_all
                  (fun t ->
                    Structure.probe a name t
                    = Structure.probe b name (Array.map (Hashtbl.find fwd) t))
                  tuples)
              (Signature.rels sig_a)))

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
    let const_pairs = shared_const_pairs a b in
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
