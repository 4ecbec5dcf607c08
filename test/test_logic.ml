(* Unit and property tests for Fmtk_logic: signatures, terms, formulas,
   transforms, parser. *)

module Signature = Fmtk_logic.Signature
module Term = Fmtk_logic.Term
module Formula = Fmtk_logic.Formula
module Transform = Fmtk_logic.Transform
module Parser = Fmtk_logic.Parser
open Formula

let check = Alcotest.check
let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

(* ---------- Signature ---------- *)

let test_signature_basics () =
  let sg = Signature.make ~consts:[ "a"; "b" ] [ ("E", 2); ("P", 1) ] in
  checki "arity E" 2 (Signature.arity sg "E");
  checki "arity P" 1 (Signature.arity sg "P");
  checkb "mem E" true (Signature.mem_rel sg "E");
  checkb "not mem R" false (Signature.mem_rel sg "R");
  checkb "mem const a" true (Signature.mem_const sg "a");
  checkb "not mem const c" false (Signature.mem_const sg "c");
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "rels order" [ ("E", 2); ("P", 1) ] (Signature.rels sg)

let test_signature_dup () =
  Alcotest.check_raises "duplicate relation"
    (Invalid_argument "Signature.make: duplicate relation \"E\"") (fun () ->
      ignore (Signature.make [ ("E", 2); ("E", 1) ]))

let test_signature_union () =
  let a = Signature.make [ ("E", 2) ] in
  let b = Signature.make ~consts:[ "c" ] [ ("P", 1) ] in
  let u = Signature.union a b in
  checkb "union has both" true
    (Signature.mem_rel u "E" && Signature.mem_rel u "P" && Signature.mem_const u "c");
  Alcotest.check_raises "conflicting arity"
    (Invalid_argument "Signature.add_rel: \"E\" has arity 2, not 3") (fun () ->
      ignore (Signature.union a (Signature.make [ ("E", 3) ])))

let test_signature_builtin () =
  checki "graph sig E/2" 2 (Signature.arity Signature.graph "E");
  checki "order sig lt/2" 2 (Signature.arity Signature.order "lt");
  checkb "empty sig" true (Signature.rels Signature.empty = [])

(* ---------- Formula structural measures ---------- *)

let phi_example =
  (* forall x (exists w P(x,w) & exists y exists z R(x,y,z)) : qr 3 per
     slide 41 *)
  forall "x"
    (conj
       [
         exists "w" (rel "P" [ v "x"; v "w" ]);
         exists "y" (exists "z" (rel "R" [ v "x"; v "y"; v "z" ]));
       ])

let test_quantifier_rank () =
  checki "slide-41 example has qr 3" 3 (quantifier_rank phi_example);
  checki "atom qr 0" 0 (quantifier_rank (rel "E" [ v "x"; v "y" ]));
  checki "negation preserves qr" 1 (quantifier_rank (not_ (exists "x" True)));
  checki "at_least n has qr n" 5 (quantifier_rank (at_least 5));
  checki "at_most n has qr n+1" 6 (quantifier_rank (at_most 5))

let test_free_vars () =
  check (Alcotest.list Alcotest.string) "free vars of slide-41 example" []
    (free_vars phi_example);
  check (Alcotest.list Alcotest.string) "open formula"
    [ "x"; "y" ]
    (free_vars (And (rel "E" [ v "x"; v "y" ], exists "z" (Eq (v "z", v "x")))));
  checkb "sentence check" true (is_sentence (at_least 3));
  checkb "non-sentence" false (is_sentence (rel "P" [ v "x" ]))

let test_subst_capture () =
  (* (exists y. x = y)[x := y] must rename the bound y. *)
  let f = exists "y" (Eq (v "x", v "y")) in
  let g = subst "x" (v "y") f in
  match g with
  | Exists (y', Eq (Term.Var "y", Term.Var y'')) ->
      checkb "bound variable renamed" true (y' = y'' && y' <> "y")
  | _ -> Alcotest.failf "unexpected shape: %s" (to_string g)

let test_subst_capture_extensions () =
  (* (exists>=2 y. E(x,y))[x := y] renames the counted y. *)
  let g = subst "x" (v "y") (Count_geq (2, "y", rel "E" [ v "x"; v "y" ])) in
  (match g with
  | Count_geq (2, y', Rel ("E", [ Term.Var "y"; Term.Var y'' ])) ->
      checkb "counted variable renamed" true (y' = y'' && y' <> "y")
  | _ -> Alcotest.failf "unexpected shape: %s" (to_string g));
  (* ([IFP T(y). E(x,y)](z))[x := y] renames the tuple variable y, and
     substitutes into the arguments. *)
  let body = rel "E" [ v "x"; v "y" ] in
  let g = subst "x" (v "y") (Ifp ("T", [ "y" ], body, [ v "x" ])) in
  match g with
  | Ifp ("T", [ y' ], Rel ("E", [ Term.Var "y"; Term.Var y'' ]), [ Term.Var "y" ])
    ->
      checkb "tuple variable renamed" true (y' = y'' && y' <> "y")
  | _ -> Alcotest.failf "unexpected shape: %s" (to_string g)

let test_subst_noop () =
  let f = forall "x" (rel "P" [ v "x" ]) in
  checkb "subst under same binder is identity" true
    (equal f (subst "x" (v "z") f))

let test_check () =
  let sg = Signature.make ~consts:[ "a" ] [ ("E", 2) ] in
  let verdict f =
    match Formula.check sg f with Ok () -> "ok" | Error msg -> msg
  in
  let expect name expected f =
    check Alcotest.string name expected (verdict f)
  in
  expect "ok" "ok" (rel "E" [ v "x"; c "a" ]);
  expect "bad arity" "relation \"E\" expects 2 argument(s), got 1"
    (rel "E" [ v "x" ]);
  expect "unknown rel" "undeclared relation \"R\"" (rel "R" [ v "x" ]);
  expect "unknown const" "undeclared constant \"b\"" (Eq (c "b", v "x"));
  (* Relation variables are accepted at their binder's arity, in scope. *)
  let ifp body = Ifp ("T", [ "x" ], body, [ v "y" ]) in
  expect "fixpoint variable" "ok" (ifp (rel "T" [ v "x" ]));
  expect "fixpoint variable arity"
    "relation \"T\" expects 1 argument(s), got 2"
    (ifp (rel "T" [ v "x"; v "x" ]));
  expect "fixpoint variable out of scope" "undeclared relation \"T\""
    (And (ifp True, rel "T" [ v "x" ]));
  expect "fixpoint binder repeated" "fixpoint \"T\" binds \"x\" twice"
    (Ifp ("T", [ "x"; "x" ], rel "E" [ v "x"; v "x" ], [ v "y"; v "y" ]));
  expect "relation variable" "ok" (Exists_rel ("R", 1, rel "R" [ v "x" ]));
  expect "relation variable shadows" "ok"
    (Forall_rel ("E", 1, rel "E" [ v "x" ]));
  expect "set variable" "ok" (Exists_set ("X", Mem (v "x", "X")));
  expect "unbound set variable" "unbound set variable \"X\""
    (Mem (v "x", "X"));
  expect "counting" "ok" (Count_geq (2, "y", rel "E" [ v "x"; v "y" ]))

let test_rels_used () =
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "rels_used"
    [ ("P", 2); ("R", 3) ]
    (rels_used phi_example)

(* ---------- Transforms ---------- *)

let sg_graph = Signature.graph

(* Enumerate all graphs of size <= 3 for semantic equivalence checks. *)
let small_graphs =
  let graphs n =
    let pairs = ref [] in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        pairs := (i, j) :: !pairs
      done
    done;
    let pairs = Array.of_list !pairs in
    let m = Array.length pairs in
    List.init (1 lsl m) (fun mask ->
        let tuples = ref [] in
        Array.iteri
          (fun idx (i, j) ->
            if mask land (1 lsl idx) <> 0 then tuples := [| i; j |] :: !tuples)
          pairs;
        Fmtk_structure.Structure.make sg_graph ~size:n [ ("E", !tuples) ])
  in
  graphs 0 @ graphs 1 @ graphs 2

(* Prenex normal form is an equivalence on nonempty domains only:
   [(∃x φ) ∨ ψ] holds on the empty structure iff [ψ] does, [∃x (φ ∨ ψ)]
   never does. *)
let nonempty_graphs =
  List.filter (fun s -> Fmtk_structure.Structure.size s > 0) small_graphs

let semantically_equal ?(structures = small_graphs) f g =
  List.for_all
    (fun s ->
      let fv = free_vars f in
      if fv = [] then Fmtk_eval.Eval.sat s f = Fmtk_eval.Eval.sat s g
      else
        Fmtk_structure.Tuple.Set.equal
          (Fmtk_eval.Eval.definable_relation s f ~vars:fv)
          (Fmtk_eval.Eval.definable_relation s g ~vars:fv))
    structures

let sample_formulas =
  [
    forall "x" (exists "y" (rel "E" [ v "x"; v "y" ]));
    not_ (forall "x" (rel "E" [ v "x"; v "x" ]));
    implies (exists "x" (rel "E" [ v "x"; v "x" ])) (at_least 2);
    iff (exists "x" (rel "E" [ v "x"; v "x" ])) (exists "y" (rel "E" [ v "y"; v "y" ]));
    exists "x" (forall "y" (disj [ Eq (v "x", v "y"); rel "E" [ v "x"; v "y" ] ]));
    forall "x" (implies (rel "E" [ v "x"; v "x" ]) False);
  ]

let test_nnf_semantics () =
  List.iter
    (fun f ->
      checkb
        (Printf.sprintf "nnf preserves %s" (to_string f))
        true
        (semantically_equal f (Transform.nnf f)))
    sample_formulas

let rec is_nnf = function
  | True | False | Eq _ | Rel _ -> true
  | Not (Eq _) | Not (Rel _) | Not True | Not False -> true
  | Not _ -> false
  | And (f, g) | Or (f, g) -> is_nnf f && is_nnf g
  | Exists (_, f) | Forall (_, f) -> is_nnf f
  | _ -> false

let test_nnf_shape () =
  List.iter
    (fun f ->
      checkb
        (Printf.sprintf "nnf shape of %s" (to_string f))
        true
        (is_nnf (Transform.nnf f)))
    sample_formulas

let test_nnf_rank () =
  List.iter
    (fun f ->
      checki "nnf preserves quantifier rank" (quantifier_rank f)
        (quantifier_rank (Transform.nnf f)))
    sample_formulas

let rec is_prenex = function
  | Exists (_, f) | Forall (_, f) -> is_prenex f
  | f -> quantifier_rank f = 0

let test_prenex () =
  List.iter
    (fun f ->
      let p = Transform.prenex f in
      checkb (Printf.sprintf "prenex shape of %s" (to_string f)) true (is_prenex p);
      checkb
        (Printf.sprintf "prenex preserves %s" (to_string f))
        true
        (semantically_equal ~structures:nonempty_graphs f p))
    sample_formulas

let test_simplify () =
  checkb "f & true" true (equal (Transform.simplify (And (at_least 2, True))) (at_least 2));
  checkb "f | true" true (equal (Transform.simplify (Or (at_least 2, True))) True);
  checkb "double negation" true
    (equal (Transform.simplify (Not (Not (rel "E" [ v "x"; v "x" ])))) (rel "E" [ v "x"; v "x" ]));
  (* ∃x.⊤ and ∀x.⊥ depend on whether the domain is empty: kept. *)
  checkb "exists true kept" true
    (equal (Transform.simplify (exists "x" True)) (exists "x" True));
  checkb "forall false kept" true
    (equal (Transform.simplify (forall "x" False)) (forall "x" False));
  checkb "exists false" true (equal (Transform.simplify (exists "x" False)) False);
  checkb "forall true" true (equal (Transform.simplify (forall "x" True)) True);
  List.iter
    (fun f ->
      checkb "simplify preserves semantics" true
        (semantically_equal f (Transform.simplify f)))
    sample_formulas

let test_rename_apart () =
  let f = And (exists "x" (rel "E" [ v "x"; v "x" ]), exists "x" (rel "E" [ v "x"; v "x" ])) in
  let g = Transform.rename_apart f in
  checkb "semantics preserved" true (semantically_equal f g);
  (* All binders distinct. *)
  let rec binders = function
    | Exists (x, f) | Forall (x, f) -> x :: binders f
    | f -> List.concat_map binders (subformulas f)
  in
  let bs = binders g in
  checki "distinct binders" (List.length bs)
    (List.length (List.sort_uniq String.compare bs))

let test_relativize () =
  (* Relativizing to a guard turns ∃x ψ into ∃x (G(x) ∧ ψ) and ∀x ψ into
     ∀x (G(x) → ψ). *)
  let guard x = rel "P" [ v x ] in
  let g = Transform.relativize ~guard (exists "x" (rel "E" [ v "x"; v "x" ])) in
  checkb "exists guarded" true
    (equal g (exists "x" (And (rel "P" [ v "x" ], rel "E" [ v "x"; v "x" ]))));
  let h = Transform.relativize ~guard (forall "x" (rel "E" [ v "x"; v "x" ])) in
  checkb "forall guarded" true
    (equal h (forall "x" (Implies (rel "P" [ v "x" ], rel "E" [ v "x"; v "x" ]))));
  (* Semantics: on a structure where P holds of the whole domain,
     relativization changes nothing. *)
  let sg = Signature.make [ ("E", 2); ("P", 1) ] in
  let s =
    Fmtk_structure.Structure.make sg ~size:3
      [ ("E", [ [| 0; 1 |] ]); ("P", [ [| 0 |]; [| 1 |]; [| 2 |] ]) ]
  in
  let phi = forall "x" (exists "y" (disj [ rel "E" [ v "x"; v "y" ]; Eq (v "x", v "y") ])) in
  checkb "trivial guard preserves truth"
    (Fmtk_eval.Eval.sat s phi)
    (Fmtk_eval.Eval.sat s (Transform.relativize ~guard phi))

(* ---------- at_least / at_most / exactly ---------- *)

let test_counting_sentences () =
  let sets = List.map Fmtk_structure.Gen.set [ 0; 1; 2; 3; 4; 5 ] in
  List.iteri
    (fun n s ->
      if n > 0 then begin
        checkb
          (Printf.sprintf "at_least 3 on %d" n)
          (n >= 3)
          (Fmtk_eval.Eval.sat s (at_least 3));
        checkb
          (Printf.sprintf "at_most 2 on %d" n)
          (n <= 2)
          (Fmtk_eval.Eval.sat s (at_most 2));
        checkb
          (Printf.sprintf "exactly 4 on %d" n)
          (n = 4)
          (Fmtk_eval.Eval.sat s (exactly 4))
      end)
    sets

(* ---------- Parser ---------- *)

let roundtrip s = Parser.parse_exn s

let test_parser_basic () =
  checkb "atom" true (equal (roundtrip "E(x,y)") (rel "E" [ v "x"; v "y" ]));
  checkb "eq" true (equal (roundtrip "x = y") (Eq (v "x", v "y")));
  checkb "neq" true (equal (roundtrip "x != y") (neq (v "x") (v "y")));
  checkb "lt sugar" true (equal (roundtrip "x < y") (rel "lt" [ v "x"; v "y" ]));
  checkb "const" true (equal (roundtrip "'a = x") (Eq (c "a", v "x")));
  checkb "true/false" true
    (equal (roundtrip "true & false") (And (True, False)))

let test_parser_precedence () =
  checkb "& binds tighter than |" true
    (equal (roundtrip "E(x,x) | E(y,y) & E(z,z)")
       (Or (rel "E" [ v "x"; v "x" ], And (rel "E" [ v "y"; v "y" ], rel "E" [ v "z"; v "z" ]))));
  checkb "-> right assoc" true
    (equal (roundtrip "E(x,x) -> E(y,y) -> E(z,z)")
       (Implies (rel "E" [ v "x"; v "x" ], Implies (rel "E" [ v "y"; v "y" ], rel "E" [ v "z"; v "z" ]))));
  checkb "! binds tightest" true
    (equal (roundtrip "!E(x,x) & E(y,y)")
       (And (Not (rel "E" [ v "x"; v "x" ]), rel "E" [ v "y"; v "y" ])))

let test_parser_quantifiers () =
  checkb "multi binder" true
    (equal (roundtrip "exists x y. x != y") (exists "x" (exists "y" (neq (v "x") (v "y")))));
  checkb "quantifier scope extends right" true
    (equal
       (roundtrip "forall x. E(x,x) & E(x,x)")
       (forall "x" (And (rel "E" [ v "x"; v "x" ], rel "E" [ v "x"; v "x" ]))));
  checkb "parenthesized body" true
    (equal
       (roundtrip "(forall x. E(x,x)) & true")
       (And (forall "x" (rel "E" [ v "x"; v "x" ]), True)))

let test_parser_errors () =
  List.iter
    (fun s ->
      match Parser.parse s with
      | Ok f -> Alcotest.failf "expected failure for %S, got %s" s (to_string f)
      | Error _ -> ())
    [ "E(x,"; "exists . x = y"; "x ="; "(x = y"; "x = y)"; "E(x,y) &&"; "@" ]

let test_parser_pp_roundtrip () =
  (* Semantic roundtrip for graph formulas; structural for phi_example
     (it mentions P and R, which the small graphs don't interpret). *)
  List.iter
    (fun f ->
      let printed = to_string f in
      match Parser.parse printed with
      | Ok g ->
          checkb (Printf.sprintf "pp/parse roundtrip %s" printed) true
            (semantically_equal f g)
      | Error e -> Alcotest.failf "roundtrip parse failed: %s" e)
    sample_formulas;
  match Parser.parse (to_string phi_example) with
  | Ok g -> checkb "phi_example structural roundtrip" true (equal phi_example g)
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e

(* ---------- QCheck: random formula properties ---------- *)

let gen_formula : Formula.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let var = oneofl [ "x"; "y"; "z" ] in
  (* Depth-bounded: deep quantifier nests make semantic checks exponential. *)
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
               map2 (fun x f -> exists x f) var (self (n - 1));
               map2 (fun x f -> forall x f) var (self (n - 1));
             ])

let closed f = Formula.exists_many (Formula.free_vars f) f

let prop_nnf =
  QCheck2.Test.make ~count:200 ~name:"nnf is NNF and preserves rank" gen_formula
    (fun f ->
      let g = Transform.nnf f in
      is_nnf g && quantifier_rank g = quantifier_rank f)

let prop_nnf_semantics =
  QCheck2.Test.make ~count:100 ~name:"nnf preserves semantics on small graphs"
    gen_formula (fun f ->
      let f = closed f in
      semantically_equal f (Transform.nnf f))

let prop_prenex_semantics =
  QCheck2.Test.make ~count:100 ~name:"prenex preserves semantics" gen_formula
    (fun f ->
      let f = closed f in
      semantically_equal ~structures:nonempty_graphs f (Transform.prenex f))

let prop_simplify =
  QCheck2.Test.make ~count:100 ~name:"simplify shrinks and preserves" gen_formula
    (fun f ->
      let f = closed f in
      let g = Transform.simplify f in
      size g <= size f && semantically_equal f g)

let prop_parse_pp =
  QCheck2.Test.make ~count:100 ~name:"parse of pp is semantically equal"
    gen_formula (fun f ->
      match Parser.parse (to_string f) with
      | Ok g -> semantically_equal (closed f) (closed g)
      | Error _ -> false)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_nnf; prop_nnf_semantics; prop_prenex_semantics; prop_simplify; prop_parse_pp ]

let () =
  Alcotest.run "fmtk_logic"
    [
      ( "signature",
        [
          Alcotest.test_case "basics" `Quick test_signature_basics;
          Alcotest.test_case "duplicates rejected" `Quick test_signature_dup;
          Alcotest.test_case "union" `Quick test_signature_union;
          Alcotest.test_case "builtins" `Quick test_signature_builtin;
        ] );
      ( "formula",
        [
          Alcotest.test_case "quantifier rank" `Quick test_quantifier_rank;
          Alcotest.test_case "free variables" `Quick test_free_vars;
          Alcotest.test_case "capture-avoiding subst" `Quick test_subst_capture;
          Alcotest.test_case "subst through counting and IFP binders" `Quick
            test_subst_capture_extensions;
          Alcotest.test_case "subst under binder" `Quick test_subst_noop;
          Alcotest.test_case "well-formedness" `Quick test_check;
          Alcotest.test_case "rels_used" `Quick test_rels_used;
          Alcotest.test_case "counting sentences" `Quick test_counting_sentences;
        ] );
      ( "transform",
        [
          Alcotest.test_case "nnf semantics" `Quick test_nnf_semantics;
          Alcotest.test_case "nnf shape" `Quick test_nnf_shape;
          Alcotest.test_case "nnf rank" `Quick test_nnf_rank;
          Alcotest.test_case "prenex" `Quick test_prenex;
          Alcotest.test_case "simplify" `Quick test_simplify;
          Alcotest.test_case "rename apart" `Quick test_rename_apart;
          Alcotest.test_case "relativize" `Quick test_relativize;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basic" `Quick test_parser_basic;
          Alcotest.test_case "precedence" `Quick test_parser_precedence;
          Alcotest.test_case "quantifiers" `Quick test_parser_quantifiers;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "pp roundtrip" `Quick test_parser_pp_roundtrip;
        ] );
      ("properties", qcheck_cases);
    ]
