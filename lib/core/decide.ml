module Structure = Fmtk_structure.Structure
module Wl = Fmtk_structure.Wl
module Csr = Fmtk_structure.Csr
module Budget = Fmtk_runtime.Budget
module Formula = Fmtk_logic.Formula
module Ef = Fmtk_games.Ef
module Gaifman = Fmtk_locality.Gaifman
module Hanf = Fmtk_locality.Hanf

type method_ =
  | Exact_game
  | Kwl_refinement
  | Degree_sequence
  | Wl_refinement
  | Hanf_locality

let method_to_string = function
  | Exact_game -> "exact-game"
  | Kwl_refinement -> "kwl-refinement"
  | Degree_sequence -> "degree-sequence"
  | Wl_refinement -> "wl-refinement"
  | Hanf_locality -> "hanf-locality"

type verdict =
  | Equivalent
  | Distinguished of Formula.t option
  | Distinguishable
  | Gave_up of Budget.reason

type outcome = {
  verdict : verdict;
  answered_by : method_ option;
  positions : int;
}

(* Sorted multiset of Gaifman degrees. Degree-k-element counts are
   FO-expressible, so a mismatch is a sound distinguishability witness. *)
let degree_multiset t =
  let g = Gaifman.adjacency_csr t in
  List.sort Int.compare (List.init (Structure.size t) (Csr.degree g))

(* 2-WL (= C^3) census comparison, the strongest certificate rung: a
   mismatch means some C^3 sentence separates the structures, and every
   counting quantifier is FO-expressible on finite structures. Guarded
   to stay a *cheap* certificate — the joint refinement walks n^2 tuples
   per structure per round, so past the guard we skip rather than burn
   the whole budget on one rung (the cheaper rungs below still run). *)
let kwl_mismatch a b =
  Structure.size a = Structure.size b
  && Structure.size a <= 96
  && not (Wl.equiv ~k:2 a b)

(* Hanf locality is only a cheap certificate while radius-[r] balls stay
   genuinely local: once a ball can cover the whole structure the census
   computation degenerates into whole-structure isomorphism tests. *)
let hanf_radius ~rank a b =
  if Structure.size a <> Structure.size b then None
  else
    let r = Hanf.fo_radius ~rank in
    if r > 8 then None
    else
      let d = max (Gaifman.degree a) (Gaifman.degree b) in
      if d <= 1 then Some r
      else if Hanf.max_ball_size ~degree:d ~radius:r < Structure.size a then
        Some r
      else None

let equiv ?config ?(budget = Budget.unlimited) ?(extract = false) ~rank a b =
  let verdict, sentence, (st : Ef.stats) =
    if extract then Ef.certify ?config ~budget ~rounds:rank a b
    else
      let v, st = Ef.solve_verdict ?config ~budget ~rounds:rank a b in
      (v, None, st)
  in
  let answered verdict m =
    { verdict; answered_by = Some m; positions = st.positions }
  in
  match verdict with
  | Ef.Equivalent -> answered Equivalent Exact_game
  | Ef.Distinguished -> answered (Distinguished sentence) Exact_game
  | Ef.Gave_up r ->
      if kwl_mismatch a b then answered Distinguishable Kwl_refinement
      else if degree_multiset a <> degree_multiset b then
        answered Distinguishable Degree_sequence
      else if not (Wl.census_equal1 a b) then
        answered Distinguishable Wl_refinement
      else begin
        match hanf_radius ~rank a b with
        | Some radius ->
            if Hanf.equiv ~radius a b then answered Equivalent Hanf_locality
            else answered Distinguishable Hanf_locality
        | None ->
            { verdict = Gave_up r; answered_by = None; positions = st.positions }
      end
