(* Beyond first-order: once the toolbox has established what FO cannot do,
   MSO, existential SO and fixpoint logic pick up exactly those queries.

   Run with: dune exec examples/beyond_fo.exe *)

module Gen = Fmtk_structure.Gen
module Graph = Fmtk_structure.Graph
module Structure = Fmtk_structure.Structure
module Signature = Fmtk_logic.Signature
module Eval = Fmtk_eval.Eval
module So_queries = Fmtk_so.So_queries
module Fp = Fmtk_fixpoint.Fp_formula
module Ef = Fmtk_games.Ef

let header title = Format.printf "@.== %s ==@." title

let () =
  header "FO's limit, re-established";
  Format.printf
    "games certified that no FO sentence of rank 3 defines EVEN on orders: %b@."
    (Ef.duplicator_wins ~rounds:3 (Gen.linear_order 8) (Gen.linear_order 9));

  header "MSO expresses EVEN over orders (one set quantifier)";
  List.iter
    (fun n ->
      Format.printf "  |L| = %d : MSO-even = %b@." n
        (Eval.sat (Gen.linear_order n) So_queries.even_on_orders))
    [ 5; 6; 7; 8 ];

  header "MSO expresses connectivity (Corollary 3.2 said FO cannot)";
  let g1 = Gen.cycle 6 and g2 = Gen.union_of [ Gen.cycle 3; Gen.cycle 3 ] in
  Format.printf "  one 6-cycle:    MSO = %b, BFS = %b@."
    (Eval.sat g1 So_queries.connectivity)
    (Graph.connected g1);
  Format.printf "  two 3-cycles:   MSO = %b, BFS = %b@."
    (Eval.sat g2 So_queries.connectivity)
    (Graph.connected g2);

  header "Existential SO reaches NP (Fagin)";
  let k4 = Graph.symmetric_closure (Gen.complete 4) in
  let c5 = Graph.symmetric_closure (Gen.cycle 5) in
  Format.printf "  3COL(K4) via ∃MSO = %b (brute force %b)@."
    (Eval.sat k4 So_queries.three_colorable)
    (So_queries.three_colorable_direct k4);
  Format.printf "  3COL(C5) via ∃MSO = %b (brute force %b)@."
    (Eval.sat c5 So_queries.three_colorable)
    (So_queries.three_colorable_direct c5);
  Format.printf "  Hamiltonian path on a directed 4-cycle via ∃SO = %b@."
    (Eval.sat (Gen.cycle 4) So_queries.hamiltonian_path);

  header "Fixpoint logic: iteration as a first-class construct";
  let stats = Eval.new_stats () in
  let chain = Gen.successor 10 in
  let tc = Eval.definable_relation ~stats chain Fp.transitive_closure ~vars:[ "u"; "v" ] in
  Format.printf "  TC of a 10-chain via [IFP]: %d pairs in %d stages@."
    (Fmtk_structure.Tuple.Set.cardinal tc)
    stats.Eval.stages;
  Format.printf "  IFP-connectivity of two 4-cycles: %b@."
    (Eval.sat (Gen.union_of [ Gen.cycle 4; Gen.cycle 4 ]) Fp.connectivity);
  List.iter
    (fun n ->
      Format.printf "  IFP-EVEN on L%d = %b  (Immerman–Vardi: order + fixpoint)@."
        n
        (Eval.sat (Gen.linear_order n) Fp.even_on_orders))
    [ 8; 9 ];
  Format.printf
    "@.The hierarchy, executed: FO < FO(IFP) ≤ PTIME, MSO ∋ CONN, ∃SO = NP.@."
