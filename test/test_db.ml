(* Tests for Fmtk_db: relational algebra engine and FO -> RA compilation
   ("FOL as a query language", slides 8-11). *)

module Formula = Fmtk_logic.Formula
module Parser = Fmtk_logic.Parser
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Gen = Fmtk_structure.Gen
module Eval = Fmtk_eval.Eval
module Relation = Fmtk_db.Relation
module Algebra = Fmtk_db.Algebra
module Compile = Fmtk_db.Compile

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let f = Parser.parse_exn

let graph_of edges ~size =
  Structure.make Signature.graph ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* ---------- Relation operators ---------- *)

let r_ab = Relation.make [ "a"; "b" ] [ [| 1; 2 |]; [| 2; 3 |]; [| 1; 3 |] ]
let r_bc = Relation.make [ "b"; "c" ] [ [| 2; 9 |]; [| 3; 7 |] ]

let test_relation_make () =
  checki "cardinality" 3 (Relation.cardinality r_ab);
  checki "arity" 2 (Relation.arity r_ab);
  (try
     ignore (Relation.make [ "a"; "a" ] []);
     Alcotest.fail "duplicate attrs"
   with Invalid_argument _ -> ());
  try
    ignore (Relation.make [ "a" ] [ [| 1; 2 |] ]);
    Alcotest.fail "bad arity"
  with Invalid_argument _ -> ()

let test_project () =
  let p = Relation.project [ "b" ] r_ab in
  checki "dedup on project" 2 (Relation.cardinality p);
  checkb "contains 2" true (Tuple.Set.mem [| 2 |] (Relation.tuples p));
  let swapped = Relation.project [ "b"; "a" ] r_ab in
  checkb "reorder" true (Tuple.Set.mem [| 2; 1 |] (Relation.tuples swapped));
  (* Nullary projection = boolean. *)
  checki "nullary of nonempty" 1 (Relation.cardinality (Relation.project [] r_ab));
  checki "nullary of empty" 0
    (Relation.cardinality (Relation.project [] (Relation.empty [ "a" ])))

let test_select_rename () =
  let s = Relation.select (fun lk -> lk "a" = 1) r_ab in
  checki "selected" 2 (Relation.cardinality s);
  let rn = Relation.rename [ ("a", "x") ] r_ab in
  checkb "renamed attr" true (List.mem "x" (Relation.attrs rn));
  checkb "tuples unchanged" true
    (Tuple.Set.equal (Relation.tuples rn) (Relation.tuples r_ab))

let test_join () =
  let j = Relation.join r_ab r_bc in
  checki "join rows" 3 (Relation.cardinality j);
  Alcotest.(check (list string)) "join attrs" [ "a"; "b"; "c" ] (Relation.attrs j);
  checkb "joined tuple" true (Tuple.Set.mem [| 1; 2; 9 |] (Relation.tuples j));
  (* Cartesian product when no shared attributes. *)
  let prod = Relation.join r_ab (Relation.rename [ ("b", "d"); ("c", "e") ] r_bc) in
  checki "product rows" 6 (Relation.cardinality prod);
  (* Join with nullary true/false. *)
  let nullary_true = Relation.make [] [ [||] ] in
  checkb "join with true is identity" true
    (Relation.equal (Relation.join r_ab nullary_true) r_ab);
  checki "join with false is empty" 0
    (Relation.cardinality (Relation.join r_ab (Relation.empty [])))

let test_union_diff () =
  let u = Relation.union r_ab (Relation.make [ "a"; "b" ] [ [| 9; 9 |]; [| 1; 2 |] ]) in
  checki "union dedups" 4 (Relation.cardinality u);
  let d = Relation.diff r_ab (Relation.make [ "a"; "b" ] [ [| 1; 2 |] ]) in
  checki "diff" 2 (Relation.cardinality d);
  (* Attribute order irrelevant: second operand is realigned. *)
  let d2 = Relation.diff r_ab (Relation.make [ "b"; "a" ] [ [| 2; 1 |] ]) in
  checki "aligned diff" 2 (Relation.cardinality d2);
  try
    ignore (Relation.union r_ab r_bc);
    Alcotest.fail "union with different attrs"
  with Invalid_argument _ -> ()

(* The cached cardinality agrees with the tuple set after every operator
   and single-tuple edit; [add] and [remove] check arity, and a no-op edit
   leaves the relation equal. *)
let test_cardinality_add_remove () =
  let card_ok label r =
    checki label (Tuple.Set.cardinal (Relation.tuples r)) (Relation.cardinality r)
  in
  let r_ab' = Relation.make [ "a"; "b" ] [ [| 9; 9 |]; [| 1; 2 |] ] in
  List.iter
    (fun (label, r) -> card_ok label r)
    [
      ("make", r_ab);
      ("empty", Relation.empty [ "a" ]);
      ("project", Relation.project [ "b" ] r_ab);
      ("rename", Relation.rename [ ("a", "x") ] r_ab);
      ("select", Relation.select (fun lk -> lk "a" = 1) r_ab);
      ("join", Relation.join r_ab r_bc);
      ("semijoin", Relation.join r_ab (Relation.project [ "b" ] r_bc));
      ("union", Relation.union r_ab r_ab');
      ("diff", Relation.diff r_ab r_ab');
      ("add", Relation.add [| 7; 7 |] r_ab);
      ("remove", Relation.remove [| 1; 2 |] r_ab);
    ];
  checki "add grows" 4 (Relation.cardinality (Relation.add [| 7; 7 |] r_ab));
  checki "remove shrinks" 2 (Relation.cardinality (Relation.remove [| 1; 2 |] r_ab));
  let present = Relation.add [| 1; 2 |] r_ab in
  card_ok "add present" present;
  checkb "add present leaves it equal" true (Relation.equal present r_ab);
  let absent = Relation.remove [| 7; 7 |] r_ab in
  card_ok "remove absent" absent;
  checkb "remove absent leaves it equal" true (Relation.equal absent r_ab);
  List.iter
    (fun (label, edit) ->
      try
        ignore (edit r_ab);
        Alcotest.failf "%s: wrong arity accepted" label
      with Invalid_argument _ -> ())
    [
      ("add", Relation.add [| 1 |]);
      ("add", Relation.add [| 1; 2; 3 |]);
      ("remove", Relation.remove [| 1 |]);
      ("remove", Relation.remove [| 1; 2; 3 |]);
    ]

(* ---------- Algebra eval ---------- *)

let test_algebra_eval () =
  let db =
    Algebra.Database.make
      [ ("R", r_ab); ("S", r_bc) ]
  in
  let open Algebra in
  let e = Project ([ "a"; "c" ], Join (Base "R", Base "S")) in
  let result = Algebra.eval_exn db e in
  checki "paths" 3 (Relation.cardinality result);
  let e2 = Select (Eq_const ("a", 1), Base "R") in
  checki "selection" 2 (Relation.cardinality (Algebra.eval_exn db e2));
  let e3 = Diff (Base "R", Select (Eq_const ("a", 1), Base "R")) in
  checki "difference" 1 (Relation.cardinality (Algebra.eval_exn db e3));
  (* unknown base relations: total error path, no escaping exception *)
  (match Algebra.eval db (Base "T") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown base");
  match Algebra.Database.find db "T" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown base find"

let test_database_of_structure () =
  let sg = Signature.make ~consts:[ "a" ] [ ("E", 2) ] in
  let s = Structure.make sg ~size:3 ~consts:[ ("a", 1) ] [ ("E", [ [| 0; 1 |] ]) ] in
  let db = Algebra.Database.of_structure s in
  checki "adom is full domain" 3
    (Relation.cardinality (Algebra.Database.find_exn db Algebra.adom));
  checki "constant singleton" 1
    (Relation.cardinality (Algebra.Database.find_exn db "@a"));
  checki "E table" 1 (Relation.cardinality (Algebra.Database.find_exn db "E"))

(* ---------- FO -> RA compilation: agreement with direct evaluation ----- *)

let compiled_equals_direct s phi =
  let fv = Formula.free_vars phi in
  (* [_any]: random formulas need not be safe-range; the padded semantics
     agrees with Tarski semantics on the full-domain adom *)
  let _, ra =
    match Compile.answers_any s phi with
    | Ok r -> r
    | Error (`Msg m) -> Alcotest.fail m
  in
  let direct = Eval.definable_relation s phi ~vars:fv in
  Tuple.Set.equal ra direct

let test_compile_atoms () =
  let s = graph_of [ (0, 1); (1, 2); (2, 0); (1, 1) ] ~size:3 in
  List.iter
    (fun q -> checkb q true (compiled_equals_direct s (f q)))
    [
      "E(x,y)";
      "E(x,x)";
      "E(y,x)";
      "x = y";
      "x = x";
      "x != y";
      "true";
      "false";
    ]

let test_compile_connectives () =
  let s = graph_of [ (0, 1); (1, 2); (2, 0); (0, 2) ] ~size:4 in
  List.iter
    (fun q -> checkb q true (compiled_equals_direct s (f q)))
    [
      "E(x,y) & E(y,z)";
      "E(x,y) | E(y,x)";
      "!E(x,y)";
      "E(x,y) -> E(y,x)";
      "E(x,y) <-> E(y,x)";
      "E(x,y) & !E(y,x)";
      "E(x,y) | x = z";
    ]

let test_compile_quantifiers () =
  let s = graph_of [ (0, 1); (1, 2); (2, 3) ] ~size:4 in
  List.iter
    (fun q -> checkb q true (compiled_equals_direct s (f q)))
    [
      "exists y. E(x,y)";
      "forall y. E(x,y) -> exists z. E(y,z)";
      "exists x y. E(x,y)";
      "forall x. exists y. E(x,y) | E(y,x)";
      "exists y. true";
      "exists z. E(x,y)" (* bound variable not used *);
    ]

let test_compile_constants () =
  let sg = Signature.make ~consts:[ "a"; "b" ] [ ("E", 2) ] in
  let s =
    Structure.make sg ~size:4 ~consts:[ ("a", 0); ("b", 3) ]
      [ ("E", [ [| 0; 1 |]; [| 1; 3 |]; [| 0; 3 |] ]) ]
  in
  List.iter
    (fun q -> checkb q true (compiled_equals_direct s (f q)))
    [
      "E('a,x)";
      "E('a,'b)";
      "x = 'a";
      "'a = 'b";
      "'a = 'a";
      "exists x. E('a,x) & E(x,'b)";
    ]

let test_compile_sat () =
  let s = graph_of [ (0, 1); (1, 0) ] ~size:2 in
  let sat_any phi =
    match Compile.sat_any s phi with
    | Ok v -> v
    | Error (`Msg m) -> Alcotest.fail m
  in
  (* ∀∃ sentences are not safe-range; [sat_any] evaluates them anyway *)
  checkb "sat sentence" true (sat_any (f "forall x. exists y. E(x,y)"));
  checkb "unsat sentence" false (sat_any (f "exists x. E(x,x)"));
  checkb "safe-range sentence through sat" true
    (match Compile.sat s (f "exists x y. E(x,y)") with
    | Ok v -> v
    | Error _ -> Alcotest.fail "refused a safe-range sentence");
  (* the default entry point refuses non-safe-range sentences... *)
  (match Compile.sat s (f "forall x. exists y. E(x,y)") with
  | Error (`Msg _) -> ()
  | Ok _ -> Alcotest.fail "expected safe-range refusal");
  (* ...and non-sentences *)
  match Compile.sat_any s (f "E(x,y)") with
  | Error (`Msg _) -> ()
  | Ok _ -> Alcotest.fail "free vars"

(* ---------- Safe range ---------- *)

let test_safe_range () =
  List.iter
    (fun (q, expected) ->
      checkb q expected (Compile.safe_range (f q)))
    [
      ("E(x,y)", true);
      ("exists y. E(x,y)", true);
      ("!E(x,y)", false);
      ("E(x,y) & !E(y,x)", true);
      ("E(x,y) | E(y,z)", false);
      (* union of incompatible free vars *)
      ("E(x,y) | E(y,x)", true);
      ("x = y", false);
      ("E(x,z) & x = y", true);
      ("forall x. E(x,x)", false);
      (* domain-dependent: a fresh loop-less element flips it *)
      ("exists x. !E(x,x)", false);
    ]

(* ---------- QCheck: compiled always agrees with direct ---------- *)

let gen_graph =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  let* edges =
    list_size (int_range 0 (n * 2))
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  return (graph_of edges ~size:n)

let gen_formula : Formula.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Formula in
  let var = oneofl [ "x"; "y"; "z" ] in
  sized_size (int_range 0 6)
  @@ fix (fun self n ->
         if n <= 0 then
           oneof
             [
               return True;
               return False;
               map2 (fun a b -> Eq (v a, v b)) var var;
               map2 (fun a b -> rel "E" [ v a; v b ]) var var;
             ]
         else
           oneof
             [
               map not_ (self (n - 1));
               map2 (fun a b -> And (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Or (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Implies (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun a b -> Iff (a, b)) (self (n / 2)) (self (n / 2));
               map2 (fun x g -> exists x g) var (self (n - 1));
               map2 (fun x g -> forall x g) var (self (n - 1));
             ])

let prop_compile_agrees =
  QCheck2.Test.make ~count:300
    ~name:"compiled RA agrees with direct evaluation on random formulas"
    QCheck2.Gen.(pair gen_graph gen_formula)
    (fun (g, phi) -> compiled_equals_direct g phi)

let prop_safe_range_sound =
  (* Safe-range formulas never mention the domain beyond the active part:
     evaluating over the structure vs the structure extended with isolated
     fresh elements must give the same answers. *)
  QCheck2.Test.make ~count:200 ~name:"safe-range queries are domain independent"
    QCheck2.Gen.(pair gen_graph gen_formula)
    (fun (g, phi) ->
      QCheck2.assume (Compile.safe_range phi);
      let bigger =
        Structure.make Signature.graph
          ~size:(Structure.size g + 2)
          [ ("E", Tuple.Set.elements (Structure.rel g "E")) ]
      in
      let fv = Formula.free_vars phi in
      Tuple.Set.equal
        (Eval.definable_relation g phi ~vars:fv)
        (Eval.definable_relation bigger phi ~vars:fv))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_compile_agrees; prop_safe_range_sound ]

let () =
  Alcotest.run "fmtk_db"
    [
      ( "relation",
        [
          Alcotest.test_case "make" `Quick test_relation_make;
          Alcotest.test_case "project" `Quick test_project;
          Alcotest.test_case "select/rename" `Quick test_select_rename;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "union/diff" `Quick test_union_diff;
          Alcotest.test_case "cardinality, add, remove" `Quick
            test_cardinality_add_remove;
        ] );
      ( "algebra",
        [
          Alcotest.test_case "eval" `Quick test_algebra_eval;
          Alcotest.test_case "of_structure" `Quick test_database_of_structure;
        ] );
      ( "compile",
        [
          Alcotest.test_case "atoms" `Quick test_compile_atoms;
          Alcotest.test_case "connectives" `Quick test_compile_connectives;
          Alcotest.test_case "quantifiers" `Quick test_compile_quantifiers;
          Alcotest.test_case "constants" `Quick test_compile_constants;
          Alcotest.test_case "sentences" `Quick test_compile_sat;
          Alcotest.test_case "safe range" `Quick test_safe_range;
        ] );
      ("properties", qcheck_cases);
    ]
