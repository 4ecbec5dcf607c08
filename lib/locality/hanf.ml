module Structure = Fmtk_structure.Structure

(* Joint censuses: type ids must come from one shared registry so counts
   are comparable across the two structures. *)
let joint_censuses ?workers ?budget ~radius g g' =
  let reg = Neighborhood.create_registry () in
  let c = Neighborhood.census ?workers ?budget reg g ~radius in
  let c' = Neighborhood.census ?workers ?budget reg g' ~radius in
  (c, c')

let equiv ?workers ?budget ~radius g g' =
  Structure.size g = Structure.size g'
  &&
  let c, c' = joint_censuses ?workers ?budget ~radius g g' in
  c = c'

let threshold_equiv ?workers ?budget ~threshold ~radius g g' =
  (* Below 1, "both counts >= threshold" holds for absent types too. *)
  if threshold < 1 then
    invalid_arg
      (Printf.sprintf "Hanf.threshold_equiv: threshold %d below 1" threshold);
  let c, c' = joint_censuses ?workers ?budget ~radius g g' in
  let count id census = Option.value ~default:0 (List.assoc_opt id census) in
  let ids = List.sort_uniq compare (List.map fst (c @ c')) in
  List.for_all
    (fun id ->
      let k = count id c and k' = count id c' in
      k = k' || (k >= threshold && k' >= threshold))
    ids

(* Census of pointed-tuple neighborhood types: c ↦ type of N_r(ā, c),
   with type ids drawn from a shared registry so censuses are comparable
   across structures. [w] walks [g]: O(ball) per c. *)
let pointed_census reg ~radius w g tuple =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun c ->
      ignore (Gaifman.walk w radius (tuple @ [ c ]));
      let id = Neighborhood.type_id reg (Gaifman.build_neighborhood w) in
      Hashtbl.replace counts id
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts id)))
    (Structure.domain g);
  List.sort compare (Hashtbl.fold (fun id c acc -> (id, c) :: acc) counts [])

let equiv_pointed ~radius (g, a_tuple) (g', b_tuple) =
  Structure.size g = Structure.size g'
  && List.length a_tuple = List.length b_tuple
  &&
  let reg = Neighborhood.create_registry () in
  pointed_census reg ~radius (Gaifman.walker g) g a_tuple
  = pointed_census reg ~radius (Gaifman.walker g') g' b_tuple

let mary_violation ~arity ~radius query (g, g') =
  if Structure.size g <> Structure.size g' then None
  else
    let module Tuple = Fmtk_structure.Tuple in
    let reg = Neighborhood.create_registry () in
    let classify target answers =
      let w = Gaifman.walker target in
      let table = Hashtbl.create 64 in
      Seq.iter
        (fun tup ->
          let tl = Array.to_list tup in
          let key = pointed_census reg ~radius w target tl in
          let in_q = Tuple.Set.mem tup answers in
          let cur = Option.value ~default:[] (Hashtbl.find_opt table key) in
          Hashtbl.replace table key ((tl, in_q) :: cur))
        (Tuple.all (Structure.size target) arity);
      table
    in
    let ta = classify g (query g) in
    let tb = classify g' (query g') in
    let result = ref None in
    Hashtbl.iter
      (fun key entries_a ->
        if !result = None then
          match Hashtbl.find_opt tb key with
          | None -> ()
          | Some entries_b ->
              List.iter
                (fun (a, qa) ->
                  if !result = None then
                    match
                      List.find_opt (fun (_, qb) -> qb <> qa) entries_b
                    with
                    | Some (b, _) -> result := Some (a, b)
                    | None -> ())
                entries_a)
      ta;
    !result

let hanf_local_violation ~radius query pairs =
  List.find_opt
    (fun (g, g') -> equiv ~radius g g' && query g <> query g')
    pairs

let fo_radius ~rank =
  let rec pow3 n = if n = 0 then 1 else 3 * pow3 (n - 1) in
  (pow3 rank - 1) / 2

let max_ball_size ~degree ~radius =
  (* 1 + d + d(d-1) + ... + d(d-1)^(r-1), capped to avoid overflow. *)
  if degree <= 0 then 1
  else if degree = 1 then min (1 + radius) max_int
  else
    let rec go i frontier acc =
      if i >= radius then acc
      else
        let frontier' = frontier * (degree - 1) in
        if acc > max_int / 4 then max_int / 2
        else go (i + 1) frontier' (acc + frontier')
    in
    go 1 degree (1 + degree)

let fo_threshold ~rank ~degree =
  let s = max_ball_size ~degree ~radius:(fo_radius ~rank) in
  if s > max_int / (rank + 1) then max_int / 2 else (rank * s) + 1
