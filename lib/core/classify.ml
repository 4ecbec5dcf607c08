module Structure = Fmtk_structure.Structure
module Wl = Fmtk_structure.Wl
module Formula = Fmtk_logic.Formula
module Budget = Fmtk_runtime.Budget
module Ef = Fmtk_games.Ef

(* Class ids in first-representative order: [equal] is an equivalence
   relation, so one representative per class suffices. *)
let first_reps equal ts =
  let ts = Array.of_list ts in
  let classes = Array.make (Array.length ts) (-1) in
  let reps = ref [] in
  Array.iteri
    (fun i t ->
      match List.find_opt (fun (_, rep) -> equal t ts.(rep)) (List.rev !reps) with
      | Some (c, _) -> classes.(i) <- c
      | None ->
          classes.(i) <- List.length !reps;
          reps := (List.length !reps, i) :: !reps)
    ts;
  classes

let by_rank ?config ?budget ~rank ts =
  first_reps (fun a b -> Ef.duplicator_wins ?config ?budget ~rounds:rank a b) ts

type partition = {
  classes : int array;
  exact : bool;
  gave_up : Budget.reason option;
}

let by_rank_budgeted ?config ?(budget = Budget.unlimited) ~rank ts =
  match by_rank ?config ~budget ~rank ts with
  | classes -> { classes; exact = true; gave_up = None }
  | exception Budget.Exhausted r ->
      (* Degrade to the 1-WL census partition, polynomial whatever the
         budget: distinct censuses soundly certify distinguishability
         at some rank; equal ones are only heuristic evidence. *)
      { classes = first_reps Wl.census_equal1 ts; exact = false; gave_up = Some r }

let separators ?budget ~rank ts =
  let arr = Array.of_list ts in
  let n = Array.length arr in
  List.concat
    (List.init n (fun i ->
         List.filter_map
           (fun j ->
             match Ef.certify ?budget ~rounds:rank arr.(i) arr.(j) with
             | _, Some phi, _ -> Some (i, j, phi)
             | Ef.Gave_up r, _, _ -> raise (Budget.Exhausted r)
             | (Ef.Equivalent | Ef.Distinguished), None, _ -> None)
           (List.init (n - i - 1) (fun d -> i + 1 + d))))
