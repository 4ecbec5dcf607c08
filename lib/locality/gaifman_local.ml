module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple

type query = Structure.t -> Tuple.Set.t

let violation ~arity ~radius q t =
  let answers = q t in
  let w = Gaifman.walker t in
  let reg = Neighborhood.create_registry () in
  (* Group all arity-tuples by neighborhood type; a violation is a group
     containing both an answer and a non-answer. *)
  let groups : (int, (int list * bool) list ref) Hashtbl.t = Hashtbl.create 64 in
  let result = ref None in
  let tuples = Tuple.all (Structure.size t) arity in
  Seq.iter
    (fun tup ->
      if !result = None then begin
        let tup_list = Array.to_list tup in
        ignore (Gaifman.walk w radius tup_list);
        let id = Neighborhood.type_id reg (Gaifman.build_neighborhood w) in
        let in_q = Tuple.Set.mem tup answers in
        let group =
          match Hashtbl.find_opt groups id with
          | Some g -> g
          | None ->
              let g = ref [] in
              Hashtbl.add groups id g;
              g
        in
        (match
           List.find_opt (fun (_, in_q') -> in_q' <> in_q) !group
         with
        | Some (other, _) ->
            let a, b = if in_q then (tup_list, other) else (other, tup_list) in
            result := Some (a, b)
        | None -> ());
        group := (tup_list, in_q) :: !group
      end)
    tuples;
  !result

let holds_on ~arity ~radius q ts =
  List.for_all (fun t -> violation ~arity ~radius q t = None) ts

let fo_radius ~rank =
  let rec pow7 n = if n = 0 then 1 else 7 * pow7 (n - 1) in
  (pow7 rank - 1) / 2
