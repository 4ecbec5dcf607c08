(* Tests for FO(IFP): fixpoint syntax, evaluation by both Eval and
   Compiled, and the canonical fixpoint definitions (TC, connectivity,
   EVEN-with-order). *)

module Fp = Fmtk_fixpoint.Fp_formula
module Formula = Fmtk_logic.Formula
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Graph = Fmtk_structure.Graph
module Gen = Fmtk_structure.Gen
module Eval = Fmtk_eval.Eval
module Compiled = Fmtk_eval.Compiled
module Parser = Fmtk_logic.Parser

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

open Formula

let env_of pairs =
  List.fold_left (fun env (x, e) -> Eval.bind x e env) Eval.empty_env pairs

let graph_of edges ~size =
  Structure.make Signature.graph ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* The two FO(IFP) evaluators: the naive oracle and the compiled engine
   behind Fp_eval. *)
type evaluator = {
  name : string;
  answers :
    ?stats:Eval.stats ->
    Structure.t ->
    Formula.t ->
    vars:string list ->
    Tuple.Set.t;
  sat : Structure.t -> Formula.t -> bool;
  holds : Structure.t -> Formula.t -> (string * int) list -> bool;
}

let evaluators =
  [
    {
      name = "Eval";
      answers = (fun ?stats g f ~vars -> Eval.definable_relation ?stats g f ~vars);
      sat = (fun g f -> Eval.sat g f);
      holds = (fun g f env -> Eval.holds g f ~env:(env_of env));
    };
    {
      name = "Compiled";
      answers =
        (fun ?stats g f ~vars -> Compiled.definable_relation ?stats g f ~vars);
      sat = (fun g f -> Compiled.sat g f);
      holds = (fun g f env -> Compiled.holds (Compiled.compile g f) ~env);
    };
  ]

let each_evaluator test = List.iter test evaluators

(* ---------- Syntax ---------- *)

let test_fo_fragment () =
  (* A fixpoint whose body ignores its relation is the body itself: one
     productive stage, then stable. *)
  let fo = Parser.parse_exn "E(x,y) | exists z. E(y,z) & !E(z,x)" in
  let wrapped = Ifp ("T", [ "x"; "y" ], fo, [ v "x"; v "y" ]) in
  let answers f = Eval.definable_relation ~vars:[ "x"; "y" ] f in
  List.iter
    (fun g ->
      checkb "FO fragment agrees" true
        (Tuple.Set.equal (answers g fo) (answers g wrapped)))
    [ Gen.cycle 4; Gen.path 4; graph_of [] ~size:2 ]

let test_free_vars () =
  Alcotest.(check (list string))
    "TC has free u, v" [ "u"; "v" ]
    (free_vars Fp.transitive_closure);
  Alcotest.(check (list string)) "connectivity closed" [] (free_vars Fp.connectivity);
  Alcotest.(check (list string)) "even closed" [] (free_vars Fp.even_on_orders)

let test_positivity () =
  (* positivity is a property of the operator's body (the operator itself
     rebinds its relation variable). *)
  let tc_body =
    Or
      ( Rel ("E", [ v "x"; v "y" ]),
        Exists ("z", And (Rel ("T", [ v "x"; v "z" ]), Rel ("E", [ v "z"; v "y" ])))
      )
  in
  checkb "TC body positive in T" true (Fp.positive_in "T" tc_body);
  checkb "negated occurrence detected" false
    (Fp.positive_in "T" (Not (Rel ("T", [ v "x" ]))));
  checkb "rebinding masks inner occurrences" true
    (Fp.positive_in "T"
       (Ifp ("T", [ "x" ], Not (Rel ("T", [ v "x" ])), [ v "u" ])));
  checkb "left of implies is negative" false
    (Fp.positive_in "T" (Implies (Rel ("T", [ v "x" ]), True)));
  checkb "either side of iff is negative" false
    (Fp.positive_in "T" (Iff (True, Rel ("T", [ v "x" ]))));
  checki "ifp depth" 1 (Fp.ifp_depth Fp.transitive_closure)

(* ---------- TC via IFP ---------- *)

let test_tc () =
  let graphs =
    [
      Gen.successor 6;
      Gen.cycle 4;
      graph_of [ (0, 1); (1, 2); (2, 0); (3, 3) ] ~size:5;
      graph_of [] ~size:3;
    ]
  in
  each_evaluator @@ fun ev ->
  List.iter
    (fun g ->
      let via_ifp = ev.answers g Fp.transitive_closure ~vars:[ "u"; "v" ] in
      checkb (ev.name ^ ": IFP TC = matrix TC") true
        (Tuple.Set.equal via_ifp (Graph.transitive_closure g)))
    graphs

let test_tc_stages () =
  (* On an n-chain the fixpoint needs n stages (n - 1 productive, one to
     see it stable), each testing all n^2 pairs: the stats expose the
     inherently-iterative nature FO lacks. The answer enumeration shares
     one fixpoint cache, so the n^2 answer candidates add no stage. Both
     evaluators count the same work. *)
  each_evaluator @@ fun ev ->
  List.iter
    (fun n ->
      let stats = Eval.new_stats () in
      ignore
        (ev.answers ~stats (Gen.successor n) Fp.transitive_closure
           ~vars:[ "u"; "v" ]);
      checki (Printf.sprintf "%s, n = %d: n stages" ev.name n) n stats.stages;
      checki
        (Printf.sprintf "%s, n = %d: n^3 tuples tested" ev.name n)
        (n * n * n) stats.tuples_tested)
    [ 4; 8 ]

(* ---------- Connectivity ---------- *)

let test_connectivity () =
  each_evaluator @@ fun ev ->
  List.iter
    (fun g ->
      checkb (ev.name ^ ": IFP connectivity = BFS") (Graph.connected g)
        (ev.sat g Fp.connectivity))
    [
      Gen.cycle 5;
      Gen.path 5;
      Gen.union_of [ Gen.cycle 3; Gen.cycle 3 ];
      Gen.binary_tree 2;
      graph_of [] ~size:1;
    ]

(* ---------- EVEN over orders (Immerman–Vardi flavour) ---------- *)

let test_even_on_orders () =
  each_evaluator @@ fun ev ->
  for n = 1 to 9 do
    checkb
      (Printf.sprintf "%s: IFP even on L%d" ev.name n)
      (n mod 2 = 0)
      (ev.sat (Gen.linear_order n) Fp.even_on_orders)
  done

(* ---------- Nested/parameterized fixpoints ---------- *)

let test_parameterized_fixpoint () =
  (* Reachability from a fixed source held in an outer variable:
     phi(s, t) = [IFP R(y). y = s | ∃z (R(z) ∧ E(z,y))](t). *)
  let body =
    Or
      ( Eq (v "y", v "s"),
        Exists ("z", And (Rel ("R", [ v "z" ]), Rel ("E", [ v "z"; v "y" ]))) )
  in
  let reach = Ifp ("R", [ "y" ], body, [ v "t" ]) in
  let g = graph_of [ (0, 1); (1, 2); (3, 0) ] ~size:4 in
  each_evaluator @@ fun ev ->
  let holds s t = ev.holds g reach [ ("s", s); ("t", t) ] in
  checkb (ev.name ^ ": 0 reaches 2") true (holds 0 2);
  checkb (ev.name ^ ": 0 does not reach 3") false (holds 0 3);
  checkb (ev.name ^ ": 3 reaches 2") true (holds 3 2);
  checkb (ev.name ^ ": source reaches itself") true (holds 2 2)

let test_errors () =
  (try
     ignore (Eval.sat (Gen.set 2) Fp.transitive_closure);
     Alcotest.fail "free variables must be rejected"
   with Invalid_argument _ -> ());
  try
    ignore
      (Eval.sat (Gen.set 2)
         (Exists ("w", Ifp ("T", [ "x" ], Rel ("Q", [ v "x" ]), [ v "w" ]))));
    Alcotest.fail "unknown relation must be rejected"
  with Invalid_argument _ -> ()

(* ---------- QCheck ---------- *)

let gen_graph =
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let* edges =
    list_size (int_range 0 (n * 2))
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  return (graph_of edges ~size:n)

let prop_tc =
  QCheck2.Test.make ~count:100 ~name:"IFP TC = matrix TC on random graphs"
    gen_graph (fun g ->
      List.for_all
        (fun ev ->
          Tuple.Set.equal
            (ev.answers g Fp.transitive_closure ~vars:[ "u"; "v" ])
            (Graph.transitive_closure g))
        evaluators)

let prop_conn =
  QCheck2.Test.make ~count:100 ~name:"IFP connectivity on random graphs"
    gen_graph (fun g ->
      List.for_all (fun ev -> ev.sat g Fp.connectivity = Graph.connected g) evaluators)

let prop_datalog_agrees =
  QCheck2.Test.make ~count:60 ~name:"IFP TC = Datalog TC" gen_graph (fun g ->
      Tuple.Set.equal
        (Eval.definable_relation g Fp.transitive_closure ~vars:[ "u"; "v" ])
        (Fmtk_datalog.Programs.tc_of g))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_tc; prop_conn; prop_datalog_agrees ]

let () =
  Alcotest.run "fmtk_fixpoint"
    [
      ( "syntax",
        [
          Alcotest.test_case "FO fragment" `Quick test_fo_fragment;
          Alcotest.test_case "free vars" `Quick test_free_vars;
          Alcotest.test_case "positivity" `Quick test_positivity;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "transitive closure" `Quick test_tc;
          Alcotest.test_case "stage counting" `Quick test_tc_stages;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "EVEN over orders" `Quick test_even_on_orders;
          Alcotest.test_case "parameterized fixpoint" `Quick test_parameterized_fixpoint;
          Alcotest.test_case "errors" `Quick test_errors;
        ] );
      ("properties", qcheck_cases);
    ]
