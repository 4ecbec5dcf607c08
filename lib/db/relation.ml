module Tuple = Fmtk_structure.Tuple
module Index = Fmtk_structure.Index

(* [card] caches [Tuple.Set.cardinal tuples]. *)
type t = { attrs : string list; tuples : Tuple.Set.t; card : int }

let check_attrs attrs =
  let sorted = List.sort String.compare attrs in
  let rec dup = function
    | a :: (b :: _ as rest) -> if a = b then Some a else dup rest
    | [] | [ _ ] -> None
  in
  match dup sorted with
  | Some a -> invalid_arg (Printf.sprintf "Relation: duplicate attribute %S" a)
  | None -> ()

let check_tuple k tup =
  if Array.length tup <> k then
    invalid_arg
      (Printf.sprintf "Relation: tuple %s has %d fields, expected %d"
         (Tuple.to_string tup) (Array.length tup) k)

let of_set attrs tuples =
  check_attrs attrs;
  let k = List.length attrs in
  let card =
    Tuple.Set.fold
      (fun tup n ->
        check_tuple k tup;
        n + 1)
      tuples 0
  in
  { attrs; tuples; card }

let make attrs tuple_list = of_set attrs (Tuple.Set.of_list tuple_list)
let attrs r = r.attrs
let tuples r = r.tuples
let cardinality r = r.card
let arity r = List.length r.attrs
let empty attrs = of_set attrs Tuple.Set.empty

(* [r] with its tuples replaced by [tuples], which have [r]'s attributes. *)
let with_tuples r tuples = { r with tuples; card = Tuple.Set.cardinal tuples }

(* [Tuple.Set.add] and [remove] return their argument itself when nothing
   changes, so the cached cardinality moves only on a real change. *)
let add tup r =
  check_tuple (arity r) tup;
  let tuples = Tuple.Set.add tup r.tuples in
  if tuples == r.tuples then r else { r with tuples; card = r.card + 1 }

let remove tup r =
  check_tuple (arity r) tup;
  let tuples = Tuple.Set.remove tup r.tuples in
  if tuples == r.tuples then r else { r with tuples; card = r.card - 1 }

let position r name =
  let rec go i = function
    | [] -> invalid_arg (Printf.sprintf "Relation: no attribute %S" name)
    | a :: _ when a = name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 r.attrs

let project names r =
  let positions = List.map (position r) names in
  let tuples =
    Tuple.Set.fold
      (fun tup acc ->
        Tuple.Set.add (Array.of_list (List.map (fun i -> tup.(i)) positions)) acc)
      r.tuples Tuple.Set.empty
  in
  of_set names tuples

let rename mapping r =
  let attrs =
    List.map
      (fun a -> match List.assoc_opt a mapping with Some b -> b | None -> a)
      r.attrs
  in
  check_attrs attrs;
  { r with attrs }

let select p r =
  with_tuples r
    (Tuple.Set.filter (fun tup -> p (fun name -> tup.(position r name))) r.tuples)

let join a b =
  let shared = List.filter (fun x -> List.mem x a.attrs) b.attrs in
  let b_only = List.filter (fun x -> not (List.mem x a.attrs)) b.attrs in
  let a_shared_pos = List.map (position a) shared in
  let b_shared_pos = List.map (position b) shared in
  if b_only = [] then (
    (* Semijoin: [b] constrains [a] without contributing columns — the
       shape Compile emits for cycle-closing atoms and adom guards. Filter
       [a] through an O(1) membership index on [b]'s key columns instead
       of materializing a hash join. *)
    let k = List.length shared in
    let key_of pos tup = Array.of_list (List.map (fun i -> tup.(i)) pos) in
    let keys =
      Tuple.Set.fold
        (fun tb acc -> Tuple.Set.add (key_of b_shared_pos tb) acc)
        b.tuples Tuple.Set.empty
    in
    let idx = Index.of_tuples ~arity:k keys in
    with_tuples a
      (Tuple.Set.filter (fun ta -> Index.mem idx (key_of a_shared_pos ta)) a.tuples))
  else
  let b_only_pos = List.map (position b) b_only in
  (* Hash b on its shared-attribute key. *)
  let index = Hashtbl.create (max 16 (cardinality b)) in
  Tuple.Set.iter
    (fun tb ->
      let key = List.map (fun i -> tb.(i)) b_shared_pos in
      Hashtbl.add index key tb)
    b.tuples;
  let out = ref Tuple.Set.empty in
  Tuple.Set.iter
    (fun ta ->
      let key = List.map (fun i -> ta.(i)) a_shared_pos in
      List.iter
        (fun tb ->
          let extra = List.map (fun i -> tb.(i)) b_only_pos in
          out := Tuple.Set.add (Array.append ta (Array.of_list extra)) !out)
        (Hashtbl.find_all index key))
    a.tuples;
  of_set (a.attrs @ b_only) !out

let align_to reference r =
  if List.sort String.compare reference.attrs <> List.sort String.compare r.attrs
  then invalid_arg "Relation: attribute sets differ"
  else project reference.attrs r

let union a b =
  let b = align_to a b in
  with_tuples a (Tuple.Set.union a.tuples b.tuples)

let diff a b =
  let b = align_to a b in
  with_tuples a (Tuple.Set.diff a.tuples b.tuples)

let equal a b =
  List.sort String.compare a.attrs = List.sort String.compare b.attrs
  && Tuple.Set.equal (project a.attrs a).tuples (project a.attrs (align_to a b)).tuples

let pp ppf r =
  Format.fprintf ppf "@[<v>%s@," (String.concat " | " r.attrs);
  Tuple.Set.iter (fun tup -> Format.fprintf ppf "%a@," Tuple.pp tup) r.tuples;
  Format.fprintf ppf "(%d rows)@]" (cardinality r)
