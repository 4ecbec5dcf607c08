let edges ?(rel = "E") t =
  Tuple.Set.fold
    (fun tup acc ->
      match tup with
      | [| u; v |] -> (u, v) :: acc
      | _ -> invalid_arg "Graph: relation is not binary")
    (Structure.rel t rel) []
  |> List.rev

let out_degrees ?(rel = "E") t =
  let d = Array.make (Structure.size t) 0 in
  List.iter (fun (u, _) -> d.(u) <- d.(u) + 1) (edges ~rel t);
  d

let in_degrees ?(rel = "E") t =
  let d = Array.make (Structure.size t) 0 in
  List.iter (fun (_, v) -> d.(v) <- d.(v) + 1) (edges ~rel t);
  d

let degree_set ?(rel = "E") t =
  let all = Array.to_list (out_degrees ~rel t) @ Array.to_list (in_degrees ~rel t) in
  List.sort_uniq Int.compare all

let max_degree ?(rel = "E") t =
  List.fold_left max 0 (degree_set ~rel t)

(* Union-find over the relation's pairs: n minus the successful unions. *)
let component_count ?(rel = "E") t =
  let parent = Array.init (Structure.size t) Fun.id in
  (* Path halving: tail-recursive, so a long chain cannot overflow. *)
  let rec find u =
    let p = parent.(u) in
    if p = u then u
    else begin
      parent.(u) <- parent.(p);
      find parent.(u)
    end
  in
  let count = ref (Structure.size t) in
  Structure.iter_rel2 t rel (fun u v ->
      let ru = find u and rv = find v in
      if ru <> rv then begin
        parent.(ru) <- rv;
        decr count
      end);
  !count

let connected ?(rel = "E") t =
  Structure.size t <= 1 || component_count ~rel t = 1

let acyclic ?(rel = "E") t =
  let n = Structure.size t in
  let g =
    match Structure.csr_of_rel t rel with
    | Some c -> c
    | None -> Csr.of_tuple_set ~n (Structure.rel t rel)
  in
  (* 0 = unvisited, 1 = on stack, 2 = done *)
  let state = Array.make n 0 in
  let rec has_cycle u =
    state.(u) <- 1;
    let cyc = ref false in
    Csr.iter_row g u (fun v ->
        if (not !cyc) && (state.(v) = 1 || (state.(v) = 0 && has_cycle v))
        then cyc := true);
    state.(u) <- 2;
    !cyc
  in
  not
    (List.exists
       (fun u -> state.(u) = 0 && has_cycle u)
       (List.init n Fun.id))

let undirected_acyclic ?(rel = "E") t =
  (* A forest has (vertices - components) undirected edges. *)
  let undirected_edges =
    List.sort_uniq compare
      (List.filter_map
         (fun (u, v) ->
           if u = v then None else Some (min u v, max u v))
         (edges ~rel t))
  in
  let self_loop = List.exists (fun (u, v) -> u = v) (edges ~rel t) in
  (not self_loop)
  && List.length undirected_edges
     = Structure.size t - component_count ~rel t

let is_tree ?(rel = "E") t = connected ~rel t && undirected_acyclic ~rel t

let transitive_closure ?(rel = "E") t =
  let n = Structure.size t in
  let reach = Array.make_matrix n n false in
  List.iter (fun (u, v) -> reach.(u).(v) <- true) (edges ~rel t);
  for k = 0 to n - 1 do
    for i = 0 to n - 1 do
      if reach.(i).(k) then
        for j = 0 to n - 1 do
          if reach.(k).(j) then reach.(i).(j) <- true
        done
    done
  done;
  let acc = ref Tuple.Set.empty in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if reach.(i).(j) then acc := Tuple.Set.add [| i; j |] !acc
    done
  done;
  !acc

let transitive_closure_structure ?(rel = "E") t =
  Structure.with_rel t rel 2 (transitive_closure ~rel t)

let symmetric_closure ?(rel = "E") t =
  let cur = Structure.rel t rel in
  let sym =
    Tuple.Set.fold
      (fun tup acc ->
        match tup with
        | [| u; v |] -> Tuple.Set.add [| v; u |] acc
        | _ -> invalid_arg "Graph: relation is not binary")
      cur cur
  in
  Structure.with_rel t rel 2 sym

let is_complete ?(rel = "E") t =
  let n = Structure.size t in
  let s = Structure.rel t rel in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && not (Tuple.Set.mem [| i; j |] s) then ok := false
    done
  done;
  !ok
