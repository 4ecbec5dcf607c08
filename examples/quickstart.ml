(* Quickstart: parse a formula, build a structure, evaluate, play a game.

   Run with: dune exec examples/quickstart.exe *)

module Parser = Fmtk_logic.Parser
module Formula = Fmtk_logic.Formula
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Gen = Fmtk_structure.Gen
module Eval = Fmtk_eval.Eval
module Ef = Fmtk_games.Ef

let () =
  (* 1. A database is a finite structure: a little directed graph. *)
  let g =
    Structure.make Signature.graph ~size:4
      [ ("E", [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 3; 0 |] ]) ]
  in
  Format.printf "Our database (a 4-cycle):@.%a@." Structure.pp g;

  (* 2. FO is the query language: parse and evaluate. *)
  let phi = Parser.parse_exn "forall x. exists y. E(x,y)" in
  Format.printf "%a  ~~>  %b@." Formula.pp phi (Eval.sat g phi);

  (* 3. Open formulas induce queries: ans(phi, A). *)
  let path2 = Parser.parse_exn "exists z. E(x,z) & E(z,y)" in
  let vars, answers = Eval.answers g path2 in
  Format.printf "ans(%a) over (%s):@." Formula.pp path2 (String.concat "," vars);
  Fmtk_structure.Tuple.Set.iter
    (fun t -> Format.printf "  %a@." Fmtk_structure.Tuple.pp t)
    answers;

  (* 4. Games: can rank-2 FO tell a 4-cycle from a 5-cycle? *)
  let c5 = Gen.cycle 5 in
  let equivalent = Ef.duplicator_wins ~rounds:2 g c5 in
  Format.printf "C4 ≡2 C5?  %b@." equivalent;

  (* 5. When the spoiler wins, the solve also yields a sentence that tells
     the structures apart: its winning strategy, read off the game's memo
     and checked on both structures before it is returned. *)
  (match Ef.certify ~rounds:3 g c5 with
  | _, Some psi, _ ->
      Format.printf "Distinguishing sentence (qr ≤ 3): %a@." Formula.pp psi;
      Format.printf "  on C4: %b, on C5: %b@." (Eval.sat g psi) (Eval.sat c5 psi)
  | _, None, _ -> Format.printf "C4 ≡3 C5 (no rank-3 sentence separates them)@.");

  (* 6. The headline tool: EVEN is not FO-expressible — certified. *)
  match
    Fmtk.Method.game_rank ~rounds:3 ~query:Fmtk.Queries.even (Gen.set 6)
      (Gen.set 7)
  with
  | Ok () ->
      Format.printf
        "Certified: no FO sentence of quantifier rank ≤ 3 defines EVEN.@."
  | Error e -> Format.printf "Certification failed: %s@." e
