(* Tests for Fmtk_eval: the naive model checker (combined complexity
   O(n^k), slide 19) and answer-set computation. *)

module Formula = Fmtk_logic.Formula
module Parser = Fmtk_logic.Parser
module Structure = Fmtk_structure.Structure
module Signature = Fmtk_logic.Signature
module Tuple = Fmtk_structure.Tuple
module Gen = Fmtk_structure.Gen
module Eval = Fmtk_eval.Eval
open Formula

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let f = Parser.parse_exn

let graph_of edges ~size =
  Structure.make Signature.graph ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* ---------- Basic semantics ---------- *)

let test_atoms () =
  let s = graph_of [ (0, 1) ] ~size:2 in
  checkb "true" true (Eval.sat s True);
  checkb "false" false (Eval.sat s False);
  checkb "edge" true (Eval.holds s (f "E(x,y)") ~env:(Eval.bind "x" 0 (Eval.bind "y" 1 Eval.empty_env)));
  checkb "non-edge" false (Eval.holds s (f "E(x,y)") ~env:(Eval.bind "x" 1 (Eval.bind "y" 0 Eval.empty_env)));
  checkb "eq" true (Eval.holds s (f "x = x") ~env:(Eval.bind "x" 0 Eval.empty_env))

let test_connectives () =
  let s = graph_of [ (0, 1) ] ~size:2 in
  let env = Eval.bind "x" 0 (Eval.bind "y" 1 Eval.empty_env) in
  checkb "and" true (Eval.holds s (f "E(x,y) & x != y") ~env);
  checkb "or" true (Eval.holds s (f "E(y,x) | E(x,y)") ~env);
  checkb "implies vacuous" true (Eval.holds s (f "E(y,x) -> false") ~env);
  checkb "implies fails" false (Eval.holds s (f "E(x,y) -> E(y,x)") ~env);
  checkb "iff" true (Eval.holds s (f "E(y,x) <-> false") ~env);
  checkb "not" true (Eval.holds s (f "!E(y,x)") ~env)

let test_quantifiers () =
  let s = graph_of [ (0, 1); (1, 2) ] ~size:3 in
  checkb "exists edge" true (Eval.sat s (f "exists x y. E(x,y)"));
  checkb "everyone has successor" false (Eval.sat s (f "forall x. exists y. E(x,y)"));
  checkb "source exists" true (Eval.sat s (f "exists x. forall y. !E(y,x)"));
  checkb "sink exists" true (Eval.sat s (f "exists x. forall y. !E(x,y)"))

let test_constants () =
  let sg = Signature.make ~consts:[ "a"; "b" ] [ ("E", 2) ] in
  let s =
    Structure.make sg ~size:3 ~consts:[ ("a", 0); ("b", 2) ]
      [ ("E", [ [| 0; 1 |]; [| 1; 2 |] ]) ]
  in
  checkb "E(a,x) for some x" true (Eval.sat s (f "exists x. E('a,x)"));
  checkb "E(a,b) fails" false (Eval.sat s (f "E('a,'b)"));
  checkb "a != b" true (Eval.sat s (f "'a != 'b"))

let test_error_cases () =
  let s = graph_of [] ~size:2 in
  let expect_invalid g =
    try
      ignore (Eval.sat s g);
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid (f "R(x,y)" |> fun g -> exists_many [ "x"; "y" ] g);
  expect_invalid (f "exists x. x = 'c");
  expect_invalid (f "E(x,y)") (* free variables in sat *)

(* ---------- Counting sentences on sets ---------- *)

let test_cardinality_queries () =
  for n = 1 to 6 do
    let s = Gen.set n in
    for k = 1 to 7 do
      checkb
        (Printf.sprintf "at_least %d on %d" k n)
        (n >= k)
        (Eval.sat s (at_least k))
    done
  done

(* ---------- Answers ---------- *)

let test_answers () =
  let s = graph_of [ (0, 1); (1, 2); (0, 2) ] ~size:3 in
  let vars, ans = Eval.answers s (f "E(x,y)") in
  Alcotest.(check (list string)) "vars" [ "x"; "y" ] vars;
  checki "3 edges" 3 (Tuple.Set.cardinal ans);
  (* Composition: paths of length 2 *)
  let _, paths = Eval.answers s (f "exists z. E(x,z) & E(z,y)") in
  checkb "path 0->2 via 1" true (Tuple.Set.mem [| 0; 2 |] paths);
  checki "exactly one" 1 (Tuple.Set.cardinal paths);
  (* Sentence: empty tuple iff true *)
  let _, yes = Eval.answers s (f "exists x y. E(x,y)") in
  checkb "boolean true = {()}" true (Tuple.Set.mem [||] yes);
  let _, no = Eval.answers s (f "forall x y. E(x,y)") in
  checki "boolean false = {}" 0 (Tuple.Set.cardinal no)

let test_definable_relation_order () =
  let s = graph_of [ (0, 1) ] ~size:2 in
  let r1 = Eval.definable_relation s (f "E(x,y)") ~vars:[ "x"; "y" ] in
  let r2 = Eval.definable_relation s (f "E(x,y)") ~vars:[ "y"; "x" ] in
  checkb "(0,1) in x,y order" true (Tuple.Set.mem [| 0; 1 |] r1);
  checkb "(1,0) in y,x order" true (Tuple.Set.mem [| 1; 0 |] r2);
  (* Extra variables range over the whole domain. *)
  let r3 = Eval.definable_relation s (f "E(x,y)") ~vars:[ "x"; "y"; "z" ] in
  checki "cartesian with z" 2 (Tuple.Set.cardinal r3)

(* ---------- Instrumentation: the O(n^k) shape (experiment E1) ---------- *)

let nested_quantifier_formula k =
  (* exists x1 ... exists xk . x1 = x1 & ... — forces full scans. *)
  let xs = List.init k (fun i -> Printf.sprintf "x%d" i) in
  forall_many xs (conj (List.map (fun x -> Eq (v x, v x)) xs))

let test_work_counter_nk () =
  (* quantifier_steps for forall-chains of depth k over domain n is
     n + n^2 + ... + n^k. *)
  let expect n k =
    let rec sum i acc = if i > k then acc else sum (i + 1) (acc + (int_of_float (float_of_int n ** float_of_int i))) in
    sum 1 0
  in
  List.iter
    (fun (n, k) ->
      let s = Gen.set n in
      let stats = Eval.new_stats () in
      ignore (Eval.sat ~stats s (nested_quantifier_formula k));
      checki
        (Printf.sprintf "work(n=%d,k=%d)" n k)
        (expect n k) stats.Eval.quantifier_steps)
    [ (2, 1); (2, 2); (3, 2); (3, 3); (4, 3) ]

let test_atom_counter () =
  let s = Gen.set 3 in
  let stats = Eval.new_stats () in
  ignore (Eval.sat ~stats s (f "forall x. x = x"));
  checki "3 atom checks" 3 stats.Eval.atom_checks

(* ---------- Spectrum / bounded model search (Trakhtenbrot context) ---- *)

module Spectrum = Fmtk_eval.Spectrum

let test_spectrum_cardinality () =
  (* Spectrum of "exactly 3 elements" over the empty signature: {3}. *)
  Alcotest.(check (list int))
    "exactly 3" [ 3 ]
    (Spectrum.spectrum ~signature:Signature.empty ~up_to:5 (exactly 3));
  Alcotest.(check (list int))
    "at least 2" [ 2; 3; 4; 5 ]
    (Spectrum.spectrum ~signature:Signature.empty ~up_to:5 (at_least 2))

let test_spectrum_graphs () =
  (* "E is a nonempty symmetric loop-free relation" needs >= 2 elements. *)
  let phi =
    f "(exists x y. E(x,y)) & (forall x y. E(x,y) -> E(y,x)) & (forall x. !E(x,x))"
  in
  Alcotest.(check (list int))
    "spectrum" [ 2; 3 ]
    (Spectrum.spectrum ~signature:Signature.graph ~up_to:3 phi);
  (* Minimal model found is a symmetric pair. *)
  (match Spectrum.find_model ~signature:Signature.graph ~up_to:3 phi with
  | Some m ->
      checki "minimal size" 2 (Structure.size m);
      checkb "symmetric edge" true
        (Structure.mem m "E" [| 0; 1 |] = Structure.mem m "E" [| 1; 0 |])
  | None -> Alcotest.fail "expected a model");
  (* Unsatisfiable sentence: empty spectrum. *)
  Alcotest.(check (list int))
    "unsat" []
    (Spectrum.spectrum ~signature:Signature.graph ~up_to:3
       (f "(exists x. E(x,x)) & (forall x. !E(x,x))"))

let test_spectrum_counts_models () =
  (* At size 2 over {E/2} there are 2^4 structures; exactly half satisfy
     E(0,0)... we count models of "some loop": 16 - #loop-free = 16 - 4 = 12. *)
  let loops = f "exists x. E(x,x)" in
  checki "12 of 16 structures have a loop" 12
    (Seq.length (Spectrum.models ~signature:Signature.graph ~size:2 loops))

let test_spectrum_validation () =
  (try
     ignore (Spectrum.satisfiable_at ~signature:Signature.graph ~size:2 (f "E(x,y)"));
     Alcotest.fail "free variables must be rejected"
   with Invalid_argument _ -> ());
  let sg = Signature.make ~consts:[ "c" ] [ ("E", 2) ] in
  try
    ignore (Spectrum.satisfiable_at ~signature:sg ~size:2 (f "exists x. E(x,x)"));
    Alcotest.fail "constants must be rejected"
  with Invalid_argument _ -> ()

(* ---------- Cross-check: evaluator agrees with semantic queries ------- *)

let prop_gen_graph =
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let* edges =
    list_size (int_range 0 (n * 2))
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  return (graph_of edges ~size:n)

let prop_no_isolated =
  QCheck2.Test.make ~count:200
    ~name:"FO 'isolated vertex exists' matches degree check" prop_gen_graph
    (fun g ->
      let fo =
        Eval.sat g (f "exists x. forall y. !E(x,y) & !E(y,x)")
      in
      let gaifman = Structure.gaifman_csr g in
      let semantic =
        List.exists
          (fun e ->
            Fmtk_structure.Csr.degree gaifman e = 0
            && not (Structure.mem g "E" [| e; e |]))
          (Structure.domain g)
      in
      fo = semantic)

let prop_has_edge =
  QCheck2.Test.make ~count:200 ~name:"FO 'has edge' matches tuple count"
    prop_gen_graph (fun g ->
      Eval.sat g (f "exists x y. E(x,y)")
      = (Tuple.Set.cardinal (Structure.rel g "E") > 0))

let prop_symmetric =
  QCheck2.Test.make ~count:200 ~name:"FO symmetry matches closure check"
    prop_gen_graph (fun g ->
      Eval.sat g (f "forall x y. E(x,y) -> E(y,x)")
      = Structure.equal g (Fmtk_structure.Graph.symmetric_closure g))

let prop_reflexive =
  QCheck2.Test.make ~count:200 ~name:"FO reflexivity" prop_gen_graph (fun g ->
      Eval.sat g (f "forall x. E(x,x)")
      = List.for_all
          (fun e -> Structure.mem g "E" [| e; e |])
          (Structure.domain g))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_no_isolated; prop_has_edge; prop_symmetric; prop_reflexive ]

let () =
  Alcotest.run "fmtk_eval"
    [
      ( "semantics",
        [
          Alcotest.test_case "atoms" `Quick test_atoms;
          Alcotest.test_case "connectives" `Quick test_connectives;
          Alcotest.test_case "quantifiers" `Quick test_quantifiers;
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "errors" `Quick test_error_cases;
          Alcotest.test_case "cardinality" `Quick test_cardinality_queries;
        ] );
      ( "answers",
        [
          Alcotest.test_case "answer sets" `Quick test_answers;
          Alcotest.test_case "variable order" `Quick test_definable_relation_order;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "n^k work counter" `Quick test_work_counter_nk;
          Alcotest.test_case "atom counter" `Quick test_atom_counter;
        ] );
      ( "spectrum",
        [
          Alcotest.test_case "cardinality sentences" `Quick test_spectrum_cardinality;
          Alcotest.test_case "graph sentences" `Quick test_spectrum_graphs;
          Alcotest.test_case "model counting" `Quick test_spectrum_counts_models;
          Alcotest.test_case "validation" `Quick test_spectrum_validation;
        ] );
      ("properties", qcheck_cases);
    ]
