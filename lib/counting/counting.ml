include Fmtk_logic.Formula

let sat a f = Fmtk_eval.Compiled.sat a f

let rec expand f =
  match f with
  | Count_geq (k, x, g) ->
      if k <= 0 then True
      else
        let body = expand g in
        let avoid = x :: all_vars body in
        (* k fresh witnesses. *)
        let witnesses =
          List.fold_left
            (fun acc _ ->
              let w = fresh_var (avoid @ acc) x in
              acc @ [ w ])
            [] (List.init k Fun.id)
        in
        let rec pairs = function
          | [] -> []
          | a :: rest -> List.map (fun b -> (a, b)) rest @ pairs rest
        in
        let distinct = List.map (fun (a, b) -> neq (v a) (v b)) (pairs witnesses) in
        let instances = List.map (fun w -> subst x (v w) body) witnesses in
        exists_many witnesses (conj (distinct @ instances))
  | _ -> map_sub expand f

let min_out_degree k = Count_geq (k, "y", Rel ("E", [ v "x"; v "y" ]))
let degree_at_least_sentence k = Exists ("x", min_out_degree k)
