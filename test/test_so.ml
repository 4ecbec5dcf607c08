(* Tests for second-order logic: syntax, evaluation by Eval, and the
   MSO/∃SO query zoo (the "what lies beyond FO" part of the survey). *)

module So_formula = Fmtk_so.So_formula
module So_queries = Fmtk_so.So_queries
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Graph = Fmtk_structure.Graph
module Gen = Fmtk_structure.Gen
module Eval = Fmtk_eval.Eval
module Parser = Fmtk_logic.Parser
open Fmtk_logic.Formula
open So_formula

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

let graph_of edges ~size =
  Structure.make Signature.graph ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* ---------- FO fragment and measures ---------- *)

let test_fo_fragment () =
  let fo = Parser.parse_exn "forall x. exists y. E(x,y) -> x != y" in
  checki "fo rank" 2 (quantifier_rank fo);
  checki "no so quantifiers" 0 (so_quantifier_count fo);
  (* A vacuous set or relation quantifier leaves FO semantics alone. *)
  List.iter
    (fun g ->
      checkb "set quantifier agrees" (Eval.sat g fo)
        (Eval.sat g (Forall_set ("X", fo)));
      checkb "relation quantifier agrees" (Eval.sat g fo)
        (Eval.sat g (Exists_rel ("R", 1, fo))))
    [ Gen.cycle 4; Gen.path 3; graph_of [ (0, 0) ] ~size:2 ]

let test_measures () =
  let phi = Exists_set ("X", Forall ("x", Mem (v "x", "X"))) in
  checki "one so quantifier" 1 (so_quantifier_count phi);
  checki "fo rank 1" 1 (quantifier_rank phi);
  checkb "existential" true (is_existential_so phi);
  checkb "universal not existential" false
    (is_existential_so (Forall_set ("X", True)));
  checkb "inner so quantifier not existential-so" false
    (is_existential_so (Exists ("x", Exists_set ("X", True))))

(* ---------- Set quantification semantics ---------- *)

let test_set_semantics () =
  let s = Gen.set 3 in
  (* There is a set containing everything. *)
  checkb "full set exists" true
    (Eval.sat s (Exists_set ("X", Forall ("x", Mem (v "x", "X")))));
  (* There is a nonempty, non-full set (needs >= 2 elements). *)
  let proper =
    Exists_set
      ( "X",
        And
          ( Exists ("x", Mem (v "x", "X")),
            Exists ("x", Not (Mem (v "x", "X"))) ) )
  in
  checkb "proper subset on 3" true (Eval.sat s proper);
  checkb "no proper subset on 1" false (Eval.sat (Gen.set 1) proper);
  (* Forall-set duality. *)
  checkb "forall X: X nonempty is false" false
    (Eval.sat s (Forall_set ("X", Exists ("x", Mem (v "x", "X")))))

let test_guards () =
  (try
     ignore (Eval.sat (Gen.set 30) (Exists_set ("X", True)));
     Alcotest.fail "domain too large must be rejected"
   with Invalid_argument _ -> ());
  (try
     ignore (Eval.sat (Gen.set 6) (Exists_rel ("R", 3, True)));
     Alcotest.fail "relation space too large must be rejected"
   with Invalid_argument _ -> ());
  (* The cell count is refused before any cell is built: 10^10 here. *)
  (try
     ignore (Eval.sat (Gen.set 100_000) (Exists_rel ("R", 2, True)));
     Alcotest.fail "relation space too large must be rejected"
   with Invalid_argument _ -> ());
  try
    ignore (Eval.sat (Gen.set 2) (Mem (v "x", "X")));
    Alcotest.fail "free variables must be rejected"
  with Invalid_argument _ -> ()

(* ---------- EVEN over orders, in MSO ---------- *)

let test_even_on_orders () =
  for n = 0 to 9 do
    checkb
      (Printf.sprintf "MSO even on L%d" n)
      (n mod 2 = 0)
      (Eval.sat (Gen.linear_order n) So_queries.even_on_orders)
  done

(* ---------- Connectivity in MSO ---------- *)

let test_connectivity_mso () =
  let cases =
    [
      Gen.cycle 5;
      Gen.path 5;
      Gen.union_of [ Gen.cycle 3; Gen.cycle 3 ];
      Gen.binary_tree 2;
      graph_of [] ~size:3;
      graph_of [] ~size:1;
    ]
  in
  List.iter
    (fun g ->
      checkb "MSO connectivity = BFS connectivity" (Graph.connected g)
        (Eval.sat g So_queries.connectivity))
    cases

(* ---------- 3-colorability ---------- *)

let sym g = Graph.symmetric_closure g

let test_three_colorable () =
  (* K3 yes, K4 no, C5 yes, C5-with-loop unaffected (loops ignored). *)
  checkb "K3" true (Eval.sat (sym (Gen.complete 3)) So_queries.three_colorable);
  checkb "K4" false (Eval.sat (sym (Gen.complete 4)) So_queries.three_colorable);
  checkb "C5" true (Eval.sat (sym (Gen.cycle 5)) So_queries.three_colorable);
  checkb "direct agrees K4" false (So_queries.three_colorable_direct (sym (Gen.complete 4)))

(* ---------- Hamiltonian path (full SO) ---------- *)

let test_hamiltonian () =
  checkb "directed path has one" true
    (Eval.sat (Gen.path 4) So_queries.hamiltonian_path);
  checkb "two components: no" false
    (Eval.sat (Gen.union_of [ Gen.path 2; Gen.path 2 ]) So_queries.hamiltonian_path);
  checkb "cycle 4 has one" true
    (Eval.sat (Gen.cycle 4) So_queries.hamiltonian_path);
  (* Star with all edges out of the centre: no Hamiltonian path on >= 4. *)
  let star = graph_of [ (0, 1); (0, 2); (0, 3) ] ~size:4 in
  checkb "out-star: no" false (Eval.sat star So_queries.hamiltonian_path)

(* ---------- QCheck cross-validation ---------- *)

let gen_graph max_n =
  let open QCheck2.Gen in
  let* n = int_range 1 max_n in
  let* edges =
    list_size (int_range 0 (n * 2))
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  return (graph_of edges ~size:n)

let prop_connectivity =
  QCheck2.Test.make ~count:100 ~name:"MSO connectivity on random graphs"
    (gen_graph 6) (fun g ->
      Eval.sat g So_queries.connectivity = Graph.connected g)

let prop_three_col =
  QCheck2.Test.make ~count:60 ~name:"MSO 3COL = brute force" (gen_graph 5)
    (fun g ->
      Eval.sat g So_queries.three_colorable
      = So_queries.three_colorable_direct g)

let prop_hamiltonian =
  QCheck2.Test.make ~count:40 ~name:"∃SO Hamiltonian path = backtracking"
    (gen_graph 4) (fun g ->
      Eval.sat g So_queries.hamiltonian_path
      = So_queries.hamiltonian_path_direct g)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_connectivity; prop_three_col; prop_hamiltonian ]

let () =
  Alcotest.run "fmtk_so"
    [
      ( "syntax",
        [
          Alcotest.test_case "FO fragment" `Quick test_fo_fragment;
          Alcotest.test_case "measures" `Quick test_measures;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "set quantifiers" `Quick test_set_semantics;
          Alcotest.test_case "guards" `Quick test_guards;
        ] );
      ( "queries",
        [
          Alcotest.test_case "EVEN over orders" `Quick test_even_on_orders;
          Alcotest.test_case "connectivity" `Quick test_connectivity_mso;
          Alcotest.test_case "3-colorability" `Quick test_three_colorable;
          Alcotest.test_case "Hamiltonian path" `Slow test_hamiltonian;
        ] );
      ("properties", qcheck_cases);
    ]
