module Formula = Fmtk_logic.Formula
open Formula

let rec so_quantifier_count f =
  let sub = List.fold_left (fun n g -> n + so_quantifier_count g) 0 (subformulas f) in
  match f with
  | Exists_set _ | Forall_set _ | Exists_rel _ | Forall_rel _ -> 1 + sub
  | _ -> sub

let rec is_existential_so = function
  | Exists_set (_, f) | Exists_rel (_, _, f) -> is_existential_so f
  | f -> so_quantifier_count f = 0
