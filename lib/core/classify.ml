module Structure = Fmtk_structure.Structure
module Iso = Fmtk_structure.Iso
module Formula = Fmtk_logic.Formula
module Budget = Fmtk_runtime.Budget
module Ef = Fmtk_games.Ef

let by_rank ?config ?budget ~rank ts =
  let ts = Array.of_list ts in
  let n = Array.length ts in
  let classes = Array.make n (-1) in
  let reps = ref [] in
  (* ≡rank is an equivalence relation, so comparing against one
     representative per class suffices. *)
  Array.iteri
    (fun i t ->
      let found =
        List.find_opt
          (fun (_, rep) -> Ef.duplicator_wins ?config ?budget ~rounds:rank t ts.(rep))
          (List.mapi (fun c rep -> (c, rep)) (List.rev !reps))
      in
      match found with
      | Some (c, _) -> classes.(i) <- c
      | None ->
          classes.(i) <- List.length !reps;
          reps := i :: !reps)
    ts;
  classes

type partition = {
  classes : int array;
  exact : bool;
  gave_up : Budget.reason option;
}

let by_invariant ts =
  let ts = Array.of_list ts in
  let keys = Array.map Iso.invariant_key ts in
  let seen = Hashtbl.create 16 in
  let next = ref 0 in
  Array.map
    (fun k ->
      match Hashtbl.find_opt seen k with
      | Some c -> c
      | None ->
          let c = !next in
          incr next;
          Hashtbl.add seen k c;
          c)
    keys

let by_rank_budgeted ?config ?(budget = Budget.unlimited) ~rank ts =
  match by_rank ?config ~budget ~rank ts with
  | classes -> { classes; exact = true; gave_up = None }
  | exception Budget.Exhausted r ->
      (* Degrade to the 1-WL invariant-key partition: distinct keys
         soundly certify non-isomorphism (hence distinguishability at
         some rank); equal keys are only heuristic evidence. *)
      { classes = by_invariant ts; exact = false; gave_up = Some r }

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
