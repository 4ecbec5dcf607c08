(* Tests for counting quantifiers (FO(Cnt)) and SQL-style aggregation,
   plus the rank-type classifier. *)

module Counting = Fmtk_counting.Counting
module Formula = Fmtk_logic.Formula
module Parser = Fmtk_logic.Parser
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Gen = Fmtk_structure.Gen
module Graph = Fmtk_structure.Graph
module Eval = Fmtk_eval.Eval
module Compiled = Fmtk_eval.Compiled
module Relation = Fmtk_db.Relation
module Aggregate = Fmtk_db.Aggregate
module Classify = Fmtk.Classify

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

let graph_of edges ~size =
  Structure.make Signature.graph ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* ---------- Counting quantifiers: semantics ---------- *)

let fan k = graph_of (List.init k (fun i -> (0, i + 1))) ~size:(k + 1)

let test_count_semantics () =
  (* Vertex 0 of fan k has out-degree exactly k. *)
  for k = 1 to 4 do
    let g = fan k in
    for threshold = 0 to 5 do
      checkb
        (Printf.sprintf "fan %d has vertex of degree >= %d" k threshold)
        (threshold <= k)
        (Counting.sat g (Counting.degree_at_least_sentence threshold))
    done
  done

let test_count_zero_and_free () =
  let g = graph_of [] ~size:2 in
  checkb "geq 0 is trivially true" true
    (Counting.sat g (Counting.Count_geq (0, "x", Counting.False)));
  (try
     ignore (Counting.sat g (Counting.min_out_degree 1));
     Alcotest.fail "free variable must be rejected"
   with Invalid_argument _ -> ());
  checkb "FO needs no embedding" true
    (Counting.sat g (Parser.parse_exn "forall x. !E(x,x)"))

let test_rank_and_size () =
  let phi = Counting.degree_at_least_sentence 4 in
  checki "counting rank 2" 2 (Formula.quantifier_rank phi);
  let expanded = Counting.expand phi in
  checki "expanded rank 5" 5 (Formula.quantifier_rank expanded);
  checkb "expansion is bigger" true
    (Formula.size expanded > 3 * Formula.size phi)

(* ---------- Elimination: expand preserves semantics ---------- *)

let test_expand_equivalent () =
  let structures =
    [ fan 1; fan 3; Gen.cycle 5; Gen.complete 4; graph_of [] ~size:3 ]
  in
  List.iter
    (fun k ->
      let phi = Counting.degree_at_least_sentence k in
      let fo = Counting.expand phi in
      List.iter
        (fun g ->
          checkb
            (Printf.sprintf "k=%d agrees" k)
            (Counting.sat g phi) (Eval.sat g fo))
        structures)
    [ 1; 2; 3 ]

let gen_counting : Counting.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Counting in
  let var = oneofl [ "x"; "y" ] in
  let t x = Fmtk_logic.Term.Var x in
  sized_size (int_range 0 4)
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               map2 (fun a b -> Eq (t a, t b)) var var;
               map2 (fun a b -> Rel ("E", [ t a; t b ])) var var;
             ]
         else
           oneof
             [
               map (fun f -> Not f) (self (n - 1));
               map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun x f -> Exists (x, f)) var (self (n - 1));
               map2 (fun x f -> Forall (x, f)) var (self (n - 1));
               map3
                 (fun k x f -> Count_geq (k, x, f))
                 (int_range 0 3) var (self (n - 1));
             ])

(* Native counting in the naive and the compiled evaluator, and the naive
   evaluator on the expansion, compared as queries over x, y (the
   generator's variables), so open formulas count too. *)
let prop_expand =
  QCheck2.Test.make ~count:200 ~name:"expand preserves semantics"
    QCheck2.Gen.(
      pair gen_counting
        (let* n = int_range 1 5 in
         let* edges =
           list_size (int_range 0 (n * 2))
             (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
         in
         return (graph_of edges ~size:n)))
    (fun (phi, g) ->
      let vars = [ "x"; "y" ] in
      let native = Eval.definable_relation g phi ~vars in
      Tuple.Set.equal native (Compiled.definable_relation g phi ~vars)
      && Tuple.Set.equal native
           (Eval.definable_relation g (Counting.expand phi) ~vars))

(* ---------- Counting queries stay local ---------- *)

let test_counting_local () =
  (* φ(x) = "out-degree >= 2" is Gaifman-local with radius 1. *)
  let q s =
    let out = ref Tuple.Set.empty in
    List.iter
      (fun e ->
        if
          Eval.holds s (Counting.min_out_degree 2)
            ~env:(Eval.bind "x" e Eval.empty_env)
        then
          out := Tuple.Set.add [| e |] !out)
      (Structure.domain s);
    !out
  in
  checkb "min-degree-2 is 1-local" true
    (Fmtk_locality.Gaifman_local.holds_on ~arity:1 ~radius:1 q
       [ Gen.binary_tree 3; Gen.cycle 8; fan 3 ])

(* ---------- Aggregates ---------- *)

let sales =
  (* (customer, amount) *)
  Relation.make [ "cust"; "amount" ]
    [ [| 1; 10 |]; [| 1; 5 |]; [| 2; 7 |]; [| 3; 10 |]; [| 3; 2 |]; [| 3; 1 |] ]

let test_group_by_count () =
  let counts = Aggregate.group_by sales ~keys:[ "cust" ] ~op:Aggregate.Count ~into:"n" in
  Alcotest.(check (list string)) "schema" [ "cust"; "n" ] (Relation.attrs counts);
  checkb "customer 3 has 3 rows" true (Tuple.Set.mem [| 3; 3 |] (Relation.tuples counts));
  checkb "customer 2 has 1 row" true (Tuple.Set.mem [| 2; 1 |] (Relation.tuples counts));
  checki "three groups" 3 (Relation.cardinality counts)

let test_group_by_sum_min_max () =
  let sums = Aggregate.group_by sales ~keys:[ "cust" ] ~op:(Aggregate.Sum "amount") ~into:"total" in
  checkb "sum for 1" true (Tuple.Set.mem [| 1; 15 |] (Relation.tuples sums));
  checkb "sum for 3" true (Tuple.Set.mem [| 3; 13 |] (Relation.tuples sums));
  let mins = Aggregate.group_by sales ~keys:[ "cust" ] ~op:(Aggregate.Min "amount") ~into:"m" in
  checkb "min for 3" true (Tuple.Set.mem [| 3; 1 |] (Relation.tuples mins));
  let maxs = Aggregate.group_by sales ~keys:[ "cust" ] ~op:(Aggregate.Max "amount") ~into:"m" in
  checkb "max for 1" true (Tuple.Set.mem [| 1; 10 |] (Relation.tuples maxs))

let test_global_aggregate () =
  let total = Aggregate.group_by sales ~keys:[] ~op:(Aggregate.Sum "amount") ~into:"s" in
  checkb "global sum 35" true (Tuple.Set.mem [| 35 |] (Relation.tuples total));
  let empty = Relation.empty [ "a" ] in
  let zero = Aggregate.group_by empty ~keys:[] ~op:Aggregate.Count ~into:"n" in
  checkb "count of empty is 0" true (Tuple.Set.mem [| 0 |] (Relation.tuples zero));
  try
    ignore (Aggregate.group_by empty ~keys:[] ~op:(Aggregate.Sum "a") ~into:"s");
    Alcotest.fail "sum of empty must be rejected"
  with Invalid_argument _ -> ()

let test_having () =
  let counts = Aggregate.group_by sales ~keys:[ "cust" ] ~op:Aggregate.Count ~into:"n" in
  let big = Aggregate.having counts ~attr:"n" ~pred:(fun n -> n >= 2) in
  checki "two heavy customers" 2 (Relation.cardinality big);
  (* degree via aggregation = degree via counting quantifier *)
  let g = fan 3 in
  let edges = Relation.of_set [ "src"; "dst" ] (Structure.rel g "E") in
  let deg = Aggregate.group_by edges ~keys:[ "src" ] ~op:Aggregate.Count ~into:"d" in
  let heavy = Aggregate.having deg ~attr:"d" ~pred:(fun d -> d >= 2) in
  checkb "aggregation agrees with counting quantifier"
    (Relation.cardinality heavy > 0)
    (Counting.sat g (Counting.degree_at_least_sentence 2))

let test_aggregate_errors () =
  (try
     ignore (Aggregate.group_by sales ~keys:[ "zzz" ] ~op:Aggregate.Count ~into:"n");
     Alcotest.fail "unknown key"
   with Invalid_argument _ -> ());
  try
    ignore (Aggregate.group_by sales ~keys:[ "cust" ] ~op:Aggregate.Count ~into:"amount");
    Alcotest.fail "clashing output name"
  with Invalid_argument _ -> ()

(* ---------- Classifier ---------- *)

let test_classify_sets () =
  (* At rank 2, bare sets classify as: size 0 | size 1 | size >= 2. *)
  let classes =
    Classify.by_rank ~rank:2 (List.map Gen.set [ 0; 1; 2; 3; 4; 2 ])
  in
  checkb "0 alone" true (classes.(0) <> classes.(1) && classes.(0) <> classes.(2));
  checkb "1 alone" true (classes.(1) <> classes.(2));
  checkb "2,3,4 together" true
    (classes.(2) = classes.(3) && classes.(3) = classes.(4));
  checkb "duplicates same class" true (classes.(2) = classes.(5))

let test_classify_separators () =
  let ts = [ Gen.set 1; Gen.set 2; Gen.set 3 ] in
  let seps = Classify.separators ~rank:2 ts in
  (* 1 vs 2, 1 vs 3 and 2 vs 3 are all rank-2 distinguishable... except 2
     vs 3 which needs rank 3: classes at rank 2 are {1}, {2,3}. *)
  checki "two separated pairs" 2 (List.length seps);
  List.iter
    (fun (i, j, phi) ->
      checkb "a sentence" true (Formula.free_vars phi = []);
      checkb "phi true on left" true (Eval.sat (List.nth ts i) phi);
      checkb "phi false on right" false (Eval.sat (List.nth ts j) phi);
      checkb "rank bound" true (Formula.quantifier_rank phi <= 2))
    seps

let test_classify_graphs () =
  let classes =
    Classify.by_rank ~rank:2
      [ Gen.cycle 3; Gen.cycle 4; Gen.path 3; Gen.cycle 5; Graph.symmetric_closure (Gen.cycle 3) ]
  in
  checkb "cycle vs path differ" true (classes.(0) <> classes.(2));
  checkb "directed vs symmetric differ" true (classes.(0) <> classes.(4))

let qcheck_cases = List.map QCheck_alcotest.to_alcotest [ prop_expand ]

let () =
  Alcotest.run "fmtk_counting"
    [
      ( "counting",
        [
          Alcotest.test_case "semantics" `Quick test_count_semantics;
          Alcotest.test_case "edge cases" `Quick test_count_zero_and_free;
          Alcotest.test_case "rank and size" `Quick test_rank_and_size;
          Alcotest.test_case "expansion equivalent" `Quick test_expand_equivalent;
          Alcotest.test_case "locality" `Quick test_counting_local;
        ] );
      ( "aggregate",
        [
          Alcotest.test_case "group by count" `Quick test_group_by_count;
          Alcotest.test_case "sum/min/max" `Quick test_group_by_sum_min_max;
          Alcotest.test_case "global" `Quick test_global_aggregate;
          Alcotest.test_case "having" `Quick test_having;
          Alcotest.test_case "errors" `Quick test_aggregate_errors;
        ] );
      ( "classify",
        [
          Alcotest.test_case "sets by rank" `Quick test_classify_sets;
          Alcotest.test_case "separators" `Quick test_classify_separators;
          Alcotest.test_case "graphs" `Quick test_classify_graphs;
        ] );
      ("properties", qcheck_cases);
    ]
