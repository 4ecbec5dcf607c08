(* Tests for Fmtk_eval.Compiled (the compile-then-run engine of E23, FO
   through FO(IFP)) and Fmtk_structure.Index, with the naive Eval
   interpreter as differential oracle, plus EF solver equivalence across
   memo/parallel configs. *)

module Formula = Fmtk_logic.Formula
module Parser = Fmtk_logic.Parser
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Index = Fmtk_structure.Index
module Gen = Fmtk_structure.Gen
module Eval = Fmtk_eval.Eval
module Compiled = Fmtk_eval.Compiled
module Ef = Fmtk_games.Ef
open Formula

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let f = Parser.parse_exn

let graph_of edges ~size =
  Structure.make Signature.graph ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* ---------- Compiled engine: basic semantics ---------- *)

let test_sentences () =
  let s = graph_of [ (0, 1); (1, 2) ] ~size:3 in
  List.iter
    (fun phi ->
      checkb (Formula.to_string phi) (Eval.sat s phi) (Compiled.sat s phi))
    [
      True;
      False;
      f "exists x y. E(x,y)";
      f "forall x. exists y. E(x,y)";
      f "exists x. forall y. !E(y,x)";
      f "forall x y. E(x,y) -> E(y,x)";
      f "exists x. x = x & !E(x,x)";
    ]

let test_free_vars_and_run () =
  let s = graph_of [ (0, 1) ] ~size:2 in
  let ct = Compiled.compile s (f "E(x,y)") in
  Alcotest.(check (list string)) "slot order" [ "x"; "y" ] (Compiled.free_vars ct);
  checkb "edge" true (Compiled.run ct [| 0; 1 |]);
  checkb "non-edge" false (Compiled.run ct [| 1; 0 |]);
  checkb "holds env" true (Compiled.holds ct ~env:[ ("y", 1); ("x", 0) ]);
  (try
     ignore (Compiled.run ct [| 0 |]);
     Alcotest.fail "arity mismatch must raise"
   with Invalid_argument _ -> ());
  (* compile_with: explicit order and unconstrained extra slots. *)
  let ct2 = Compiled.compile_with s ~vars:[ "y"; "x"; "z" ] (f "E(x,y)") in
  checkb "reordered" true (Compiled.run ct2 [| 1; 0; 0 |]);
  checki "z ranges free" 2
    (Tuple.Set.cardinal (Compiled.definable_relation_of ct2))

let test_constants () =
  let sg = Signature.make ~consts:[ "a"; "b" ] [ ("E", 2) ] in
  let s =
    Structure.make sg ~size:3 ~consts:[ ("a", 0); ("b", 2) ]
      [ ("E", [ [| 0; 1 |]; [| 1; 2 |] ]) ]
  in
  List.iter
    (fun phi ->
      checkb (Formula.to_string phi) (Eval.sat s phi) (Compiled.sat s phi))
    [ f "exists x. E('a,x)"; f "E('a,'b)"; f "'a != 'b" ]

let test_errors () =
  let s = graph_of [] ~size:2 in
  let expect_invalid phi =
    try
      ignore (Compiled.sat s phi);
      Alcotest.fail "expected Invalid_argument"
    with Invalid_argument _ -> ()
  in
  expect_invalid (exists_many [ "x"; "y" ] (rel "R" [ v "x"; v "y" ]));
  expect_invalid (f "exists x. x = 'c");
  expect_invalid (f "E(x,y)");
  (* Wrong-arity atom is well-defined: simply false, as for Eval. *)
  let phi = exists "x" (rel "E" [ v "x" ]) in
  checkb "wrong arity false" (Eval.sat s phi) (Compiled.sat s phi)

(* ---------- Index unit tests ---------- *)

let test_index_small_arities () =
  (* Arity <= 2 over a small domain: the bitset representation. *)
  let t1 = Index.build ~size:5 ~arity:1 (Tuple.Set.of_list [ [| 0 |]; [| 3 |] ]) in
  checkb "mem1 hit" true (Index.mem1 t1 3);
  checkb "mem1 miss" false (Index.mem1 t1 2);
  checkb "mem1 out of domain" false (Index.mem1 t1 17);
  checkb "mem agrees" true (Index.mem t1 [| 0 |]);
  checkb "wrong arity" false (Index.mem t1 [| 0; 0 |]);
  let t2 = Index.build ~size:4 ~arity:2 (Tuple.Set.of_list [ [| 1; 2 |] ]) in
  checkb "mem2 hit" true (Index.mem2 t2 1 2);
  checkb "mem2 miss" false (Index.mem2 t2 2 1);
  checkb "mem2 negative" false (Index.mem2 t2 (-1) 2);
  let t0 = Index.build ~size:3 ~arity:0 (Tuple.Set.singleton [||]) in
  checkb "nullary present" true (Index.mem t0 [||]);
  let e0 = Index.build ~size:3 ~arity:0 Tuple.Set.empty in
  checkb "nullary absent" false (Index.mem e0 [||])

let test_index_higher_arities () =
  (* Arity 3 packs into one int; a huge domain forces the generic
     (tuple-keyed) fallback. Same answers either way. *)
  let tuples = Tuple.Set.of_list [ [| 0; 1; 2 |]; [| 2; 2; 2 |] ] in
  let packed = Index.build ~size:3 ~arity:3 tuples in
  let generic = Index.build ~size:(1 lsl 22) ~arity:3 tuples in
  List.iter
    (fun (tup, expect) ->
      checkb "packed" expect (Index.mem packed tup);
      checkb "generic" expect (Index.mem generic tup))
    [
      ([| 0; 1; 2 |], true);
      ([| 2; 2; 2 |], true);
      ([| 1; 0; 2 |], false);
      ([| 0; 1 |], false);
      ([| 0; 1; 2; 0 |], false);
      ([| 0; 1; 3 |], false);
    ];
  checkb "packed out of its domain" false (Index.mem packed [| 0; 1; 5 |]);
  checki "arity" 3 (Index.arity packed)

let test_index_of_tuples () =
  let t = Index.of_tuples ~arity:2 (Tuple.Set.of_list [ [| 7; 7 |] ]) in
  checkb "inferred bound covers max" true (Index.mem t [| 7; 7 |]);
  checkb "beyond inferred bound" false (Index.mem t [| 8; 8 |]);
  let e = Index.of_tuples ~arity:2 Tuple.Set.empty in
  checkb "empty set" false (Index.mem e [| 0; 0 |])

let test_probe_cache_invalidation () =
  let s = graph_of [ (0, 1) ] ~size:3 in
  checkb "probe before" true (Structure.probe s "E" [| 0; 1 |]);
  (* Derived structures must not inherit the parent's index cache. *)
  let s' = Structure.with_rel s "E" 2 (Tuple.Set.singleton [| 2; 2 |]) in
  checkb "old tuple gone" false (Structure.probe s' "E" [| 0; 1 |]);
  checkb "new tuple present" true (Structure.probe s' "E" [| 2; 2 |]);
  checkb "parent unchanged" true (Structure.probe s "E" [| 0; 1 |]);
  let sub, _ = Structure.induced s [ 0; 1 ] in
  checkb "induced re-indexed" true (Structure.probe sub "E" [| 0; 1 |]);
  (try
     ignore (Structure.probe s "R" [| 0 |]);
     Alcotest.fail "undeclared relation must raise"
   with Not_found -> ());
  (* probe = mem on every possible pair. *)
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          checkb "probe = mem"
            (Structure.mem s "E" [| x; y |])
            (Structure.probe s "E" [| x; y |]))
        (Structure.domain s))
    (Structure.domain s)

(* ---------- Differential: compiled vs naive on random inputs ---------- *)

let gen_graph =
  let open QCheck2.Gen in
  let* n = int_range 0 6 in
  let* edges =
    if n = 0 then return []
    else
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

let agree g phi =
  (* Compare full answer sets: this checks [holds] on every assignment of
     the free variables, not just one. *)
  let vars, naive = Eval.answers g phi in
  let cvars, compiled = Compiled.answers g phi in
  vars = cvars && Tuple.Set.equal naive compiled

let prop_differential =
  (* The acceptance bar: agreement on >= 500 random (formula, structure)
     pairs. *)
  QCheck2.Test.make ~count:500
    ~name:"compiled agrees with naive Eval on random (structure, formula)"
    QCheck2.Gen.(pair gen_graph gen_formula)
    (fun (g, phi) -> agree g phi)

let prop_differential_roundtrip =
  QCheck2.Test.make ~count:200
    ~name:"compiled agrees with naive Eval after parser round-trip"
    QCheck2.Gen.(pair gen_graph gen_formula)
    (fun (g, phi) ->
      let phi' = Parser.parse_exn (Formula.to_string phi) in
      agree g phi')

let prop_definable_relation =
  QCheck2.Test.make ~count:200
    ~name:"compiled definable_relation matches naive under var reorder"
    QCheck2.Gen.(pair gen_graph gen_formula)
    (fun (g, phi) ->
      let vars = [ "z"; "y"; "x" ] in
      Tuple.Set.equal
        (Eval.definable_relation g phi ~vars)
        (Compiled.definable_relation g phi ~vars))

(* ---------- Differential: compiled FO(IFP) ---------- *)

(* Answers and fixpoint counters, from both evaluators, over the free
   variables in first-occurrence order. *)
let fixpoint_agree g phi =
  let vars = Formula.free_vars phi in
  let naive_stats = Eval.new_stats () and compiled_stats = Eval.new_stats () in
  let naive = Eval.definable_relation ~stats:naive_stats g phi ~vars in
  let compiled =
    Compiled.definable_relation ~stats:compiled_stats g phi ~vars
  in
  Tuple.Set.equal naive compiled
  && naive_stats.stages = compiled_stats.stages
  && naive_stats.tuples_tested = compiled_stats.tuples_tested

(* FO(IFP) formulas over E with at least one fixpoint. [rels] holds the
   stage relations in scope, innermost first: the innermost binder of a
   name wins, and a stage named E shadows the graph's edges. Fixpoints
   have arity 0-2 at the top and 0-1 inside another body, which keeps
   the naive oracle's recomputed inner fixpoints cheap. *)
let gen_ifp_formula : Formula.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Formula in
  let var = oneofl [ "x"; "y"; "z" ] in
  let visible rels =
    let stages =
      List.fold_left
        (fun acc (r, k) -> if List.mem_assoc r acc then acc else acc @ [ (r, k) ])
        [] rels
    in
    if List.mem_assoc "E" stages then stages else ("E", 2) :: stages
  in
  let rec form rels n =
    let atom =
      let* r, k = oneofl (visible rels) in
      map (fun xs -> rel r (List.map v xs)) (list_repeat k var)
    in
    if n <= 0 then
      frequency
        [
          (1, return True);
          (1, return False);
          (2, map2 (fun a b -> Eq (v a, v b)) var var);
          (6, atom);
        ]
    else
      frequency
        [
          (2, atom);
          (2, map not_ (form rels (n - 1)));
          (2, map2 (fun a b -> And (a, b)) (form rels (n / 2)) (form rels (n / 2)));
          (2, map2 (fun a b -> Or (a, b)) (form rels (n / 2)) (form rels (n / 2)));
          (1, map2 implies (form rels (n / 2)) (form rels (n / 2)));
          (2, map2 exists var (form rels (n - 1)));
          (1, map2 forall var (form rels (n - 1)));
          (3, ifp rels n);
        ]
  and ifp rels n =
    let* k = int_range 0 (if rels = [] then 2 else 1) in
    let* r = oneofl [ "R"; "S"; "E" ] in
    let* xs = map (List.filteri (fun i _ -> i < k)) (shuffle_l [ "x"; "y"; "z" ]) in
    let* body = form ((r, k) :: rels) (n - 1) in
    let* ts = list_repeat k var in
    return (Ifp (r, xs, body, List.map v ts))
  in
  sized_size (int_range 1 6) @@ fun n ->
  frequency
    [
      (3, ifp [] n);
      (1, map2 exists var (ifp [] (n - 1)));
      (1, map2 forall var (ifp [] (n - 1)));
      (1, map not_ (ifp [] (n - 1)));
      (1, map2 (fun a b -> And (a, b)) (ifp [] (n / 2)) (form [] (n / 2)));
      (1, map2 (fun a b -> Or (a, b)) (form [] (n / 2)) (ifp [] (n / 2)));
    ]

let prop_fixpoint_differential =
  QCheck2.Test.make ~count:400
    ~name:"compiled FO(IFP) = naive Eval: answers, stages, tuples tested"
    ~print:(fun (g, phi) ->
      Printf.sprintf "size %d: %s" (Structure.size g) (Formula.to_string phi))
    QCheck2.Gen.(pair gen_graph gen_ifp_formula)
    (fun (g, phi) -> fixpoint_agree g phi)

(* Fixed formulas, one per shape the random suite is meant to reach. *)
let fixpoint_shapes =
  let module Fp = Fmtk_fixpoint.Fp_formula in
  let e a b = rel "E" [ v a; v b ] in
  let reach_from s t =
    (* [IFP R(y). y = s | ∃z (R(z) ∧ E(z,y))](t): s is an outer free
       variable of the body *)
    Ifp
      ( "R",
        [ "y" ],
        Or (Eq (v "y", v s), exists "z" (And (rel "R" [ v "z" ], e "z" "y"))),
        [ v t ] )
  in
  [
    ("TC", Fp.transitive_closure);
    ("connectivity", Fp.connectivity);
    ( "nullary stage",
      Ifp ("P", [], Or (exists "x" (e "x" "x"), rel "P" []), []) );
    ( "stage under negation",
      Ifp
        ( "R",
          [ "x" ],
          exists "y" (And (e "y" "x", Not (rel "R" [ v "y" ]))),
          [ v "u" ] ) );
    ( "nested, inner body mentions the outer stage",
      Ifp
        ( "R",
          [ "x" ],
          Or
            ( exists "y" (e "y" "x"),
              Ifp
                ( "S",
                  [ "y" ],
                  Or
                    ( rel "R" [ v "y" ],
                      exists "z" (And (rel "S" [ v "z" ], e "z" "y")) ),
                  [ v "x" ] ) ),
          [ v "u" ] ) );
    ("outer free variables", reach_from "s" "t");
    ( "under quantifiers",
      forall "s" (exists "t" (And (Not (Eq (v "s", v "t")), reach_from "s" "t")))
    );
    ( "stage named E shadows the edges",
      forall "u"
        (exists "w"
           (And
              ( e "u" "w",
                Ifp
                  ( "E",
                    [ "x" ],
                    Or
                      ( Eq (v "x", v "u"),
                        exists "z" (And (rel "E" [ v "z" ], Eq (v "z", v "x"))) ),
                    [ v "w" ] ) ))) );
  ]

let test_fixpoint_shapes () =
  let graphs =
    [
      graph_of [] ~size:0;
      graph_of [] ~size:1;
      graph_of [ (0, 0) ] ~size:1;
      Gen.successor 5;
      Gen.cycle 4;
      graph_of [ (0, 1); (1, 2); (2, 0); (3, 3); (4, 5) ] ~size:6;
    ]
  in
  List.iter
    (fun (name, phi) ->
      List.iteri
        (fun i g ->
          checkb (Printf.sprintf "%s on graph %d" name i) true
            (fixpoint_agree g phi))
        graphs)
    fixpoint_shapes;
  for n = 1 to 7 do
    checkb
      (Printf.sprintf "EVEN over L%d" n)
      true
      (fixpoint_agree (Gen.linear_order n) Fmtk_fixpoint.Fp_formula.even_on_orders)
  done

let test_repeated_variables () =
  let g = Gen.successor 3 in
  let phi = f "exists y. E(x,y)" in
  let expect_invalid name thunk =
    match thunk () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "Eval.definable_relation" (fun () ->
      Eval.definable_relation g phi ~vars:[ "x"; "x" ]);
  expect_invalid "Compiled.definable_relation" (fun () ->
      Compiled.definable_relation g phi ~vars:[ "x"; "x" ]);
  expect_invalid "Compiled.compile_with" (fun () ->
      Compiled.compile_with g phi ~vars:[ "y"; "x"; "y" ]);
  let twice =
    exists "u" (Ifp ("R", [ "x"; "x" ], rel "E" [ v "x"; v "x" ], [ v "u"; v "u" ]))
  in
  expect_invalid "Eval on a repeated IFP binder" (fun () -> Eval.sat g twice);
  expect_invalid "Compiled on a repeated IFP binder" (fun () ->
      Compiled.sat g twice)

let test_stage_cell_guard () =
  (* 100000^4 overflows an int: refused at compile time, not wrapped.
     100000^3 fits a Bytes, and compiling it allocates nothing. *)
  let g = Gen.set 100_000 in
  let ifp k =
    let xs = List.init k (fun i -> Printf.sprintf "x%d" i) in
    exists "u" (Ifp ("R", xs, True, List.map (fun _ -> v "u") xs))
  in
  (match Compiled.compile g (ifp 4) with
  | _ -> Alcotest.fail "n^4 stage cells must be refused"
  | exception Invalid_argument _ -> ());
  ignore (Compiled.compile g (ifp 3))

(* ---------- Differential: guarded quantifier walks ---------- *)

(* Graphs of 0-12 elements, denser than [gen_graph] so rows vary. *)
let gen_graph_upto_12 =
  let open QCheck2.Gen in
  let* n = int_range 0 12 in
  let* edges =
    if n = 0 then return []
    else
      list_size (int_range 0 (n * 3))
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  return (graph_of edges ~size:n)

(* Formulas whose quantifiers mostly carry a guard, in each shape the
   guard rule tells apart: the guard first or behind another conjunct,
   forward or reverse, under [∃], [∀ (φ → ψ)] and [∃^{≥k}]. Binders
   come from three names, so [E(x,x)] (no guard) and binders that
   shadow an outer name turn up often. Two fixpoint shapes join them:
   IFP-TC, whose step [∃z (T(x,z) ∧ E(z,y))] is guarded by [E(z,y)]
   behind the stage atom, and an [∃x] whose fixpoint conjunct, before
   the guard, has [x] among its body's outer free variables — that
   quantifier must stay unguarded, or [stages] would fall short of
   [Eval]'s. *)
let gen_guarded : Formula.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let open Formula in
  let var = oneofl [ "x"; "y"; "z" ] in
  let e a b = rel "E" [ v a; v b ] in
  let edge_at x =
    let* t = var in
    let* forward = bool in
    return (if forward then e t x else e x t)
  in
  let rec form n =
    if n <= 0 then
      frequency
        [
          (1, return True);
          (2, map2 (fun a b -> Eq (v a, v b)) var var);
          (3, map2 e var var);
        ]
    else
      frequency
        [
          (1, form 0);
          (1, map not_ (form (n - 1)));
          (1, map2 (fun a b -> Or (a, b)) (form (n / 2)) (form (n / 2)));
          (1, map2 (fun a b -> And (a, b)) (form (n / 2)) (form (n / 2)));
          (5, quant n);
        ]
  and quant n =
    let* x = var in
    let* g = edge_at x in
    let* phi = form (n - 1) in
    let* psi = form 0 in
    let* k = int_range 1 3 in
    oneofl
      [
        exists x (And (g, phi));
        exists x (And (psi, g));
        exists x (And (And (psi, g), phi));
        forall x (Implies (g, phi));
        forall x (Implies (And (psi, g), phi));
        Count_geq (k, x, And (g, phi));
        Count_geq (k, x, And (psi, And (g, phi)));
      ]
  in
  let tc =
    let* base = form 0 in
    let* a = var in
    let* b = var in
    return
      (Ifp
         ( "T",
           [ "x"; "y" ],
           Or (base, exists "z" (And (rel "T" [ v "x"; v "z" ], e "z" "y"))),
           [ v a; v b ] ))
  in
  let fixpoint_first =
    let* t = oneofl [ "y"; "z" ] in
    let* s = var in
    return
      (exists "x"
         (And
            ( Ifp
                ( "R",
                  [ "y" ],
                  Or
                    ( Eq (v "y", v "x"),
                      exists "z" (And (rel "R" [ v "z" ], e "z" "y")) ),
                  [ v s ] ),
              e t "x" )))
  in
  frequency
    [
      (8, sized_size (int_range 1 3) form);
      (1, tc);
      (1, map2 exists var tc);
      (2, fixpoint_first);
    ]

let prop_guarded_differential =
  QCheck2.Test.make ~count:400
    ~name:
      "guarded walks = naive Eval on set and CSR storage: answers, stages, \
       tuples tested"
    ~print:(fun (g, phi) ->
      Printf.sprintf "size %d: %s" (Structure.size g) (Formula.to_string phi))
    QCheck2.Gen.(pair gen_graph_upto_12 gen_guarded)
    (fun (g, phi) ->
      fixpoint_agree g phi && fixpoint_agree (Structure.to_csr g) phi)

let test_out_of_domain () =
  (* [run] and [holds] do not check their arguments: an out-of-domain
     guard value has an empty row, so the answer is the naive one. *)
  let y_of_x = rel "E" [ v "x"; v "y" ] and x_of_y = rel "E" [ v "y"; v "x" ] in
  let formulas =
    [
      exists "y" y_of_x;
      exists "y" x_of_y;
      exists "y" (And (y_of_x, Not (Eq (v "y", v "x"))));
      forall "y" (Implies (y_of_x, Eq (v "y", v "x")));
      forall "y" (Implies (x_of_y, False));
      Count_geq (0, "y", y_of_x);
      Count_geq (1, "y", x_of_y);
      Count_geq (2, "y", y_of_x);
    ]
  in
  List.iter
    (fun g ->
      List.iter
        (fun phi ->
          let ct = Compiled.compile g phi in
          List.iter
            (fun x ->
              let name =
                Printf.sprintf "%s at x = %d (%s)" (Formula.to_string phi) x
                  (Structure.backend_summary g)
              in
              let env = Eval.bind "x" x Eval.empty_env in
              let naive = Eval.holds g phi ~env in
              checkb name naive (Compiled.run ct [| x |]);
              checkb name naive (Compiled.holds ct ~env:[ ("x", x) ]))
            [ 10; 6; -1 ])
        formulas)
    [ Structure.to_sets (Gen.cycle 6); Structure.to_csr (Gen.cycle 6) ]

(* ---------- EF solver: config equivalence ---------- *)

(* All config corners, including a forced multi-domain fan-out so the
   [Domain.spawn] path runs even where the machine reports one core. *)
let ef_configs =
  [
    ( "memo seq",
      { Ef.memo = true; parallel = false; workers = None; orbit = true } );
    ( "no-memo seq",
      { Ef.memo = false; parallel = false; workers = None; orbit = true } );
    ( "memo seq no-orbit",
      { Ef.memo = true; parallel = false; workers = None; orbit = false } );
    ( "no-memo seq no-orbit",
      { Ef.memo = false; parallel = false; workers = None; orbit = false } );
    ( "memo par3",
      { Ef.memo = true; parallel = true; workers = Some 3; orbit = true } );
    ( "memo par3 no-orbit",
      { Ef.memo = true; parallel = true; workers = Some 3; orbit = false } );
    ( "no-memo par2",
      { Ef.memo = false; parallel = true; workers = Some 2; orbit = true } );
    ("auto", Ef.default_config);
  ]

let test_ef_config_equivalence () =
  let games =
    [
      ("L5 vs L6 r2", Gen.linear_order 5, Gen.linear_order 6, 2);
      ("L7 vs L8 r3", Gen.linear_order 7, Gen.linear_order 8, 3);
      ("L7 vs L7 r3", Gen.linear_order 7, Gen.linear_order 7, 3);
      ("C6 vs C7 r2", Gen.cycle 6, Gen.cycle 7, 2);
      ("C4 vs C4 r3", Gen.cycle 4, Gen.cycle 4, 3);
      ("K3 vs L3 r2", Gen.complete 3, Gen.linear_order 3, 2);
    ]
  in
  List.iter
    (fun (name, a, b, rounds) ->
      let reference = Ef.duplicator_wins ~rounds a b in
      List.iter
        (fun (cname, config) ->
          checkb
            (Printf.sprintf "%s [%s]" name cname)
            reference
            (Ef.duplicator_wins ~config ~rounds a b))
        ef_configs)
    games

let test_ef_from_position_equivalence () =
  let a = Gen.linear_order 6 and b = Gen.linear_order 7 in
  List.iter
    (fun start ->
      let reference = fst (Ef.solve ~start ~rounds:2 a b) in
      List.iter
        (fun (cname, config) ->
          checkb
            (Printf.sprintf "from %d pairs [%s]" (List.length start) cname)
            reference
            (fst (Ef.solve ~config ~start ~rounds:2 a b)))
        ef_configs)
    [ []; [ (0, 0) ]; [ (0, 0); (5, 6) ]; [ (0, 6) ] ]

let prop_ef_random_graphs =
  let gen =
    let open QCheck2.Gen in
    let graph =
      let* n = int_range 1 5 in
      let* edges =
        list_size (int_range 0 (n * 2))
          (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
      in
      return (graph_of edges ~size:n)
    in
    pair graph graph
  in
  QCheck2.Test.make ~count:100
    ~name:"EF verdict independent of memo/parallel on random graph pairs" gen
    (fun (a, b) ->
      let reference = Ef.duplicator_wins ~rounds:2 a b in
      List.for_all
        (fun (_, config) ->
          Ef.duplicator_wins ~config ~rounds:2 a b = reference)
        ef_configs)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_differential;
      prop_differential_roundtrip;
      prop_definable_relation;
      prop_fixpoint_differential;
      prop_guarded_differential;
      prop_ef_random_graphs;
    ]

let () =
  Alcotest.run "fmtk_compiled"
    [
      ( "compiled",
        [
          Alcotest.test_case "sentences" `Quick test_sentences;
          Alcotest.test_case "free vars and run" `Quick test_free_vars_and_run;
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "fixpoint shapes" `Quick test_fixpoint_shapes;
          Alcotest.test_case "repeated variables" `Quick test_repeated_variables;
          Alcotest.test_case "stage cell guard" `Quick test_stage_cell_guard;
          Alcotest.test_case "out-of-domain arguments" `Quick test_out_of_domain;
        ] );
      ( "index",
        [
          Alcotest.test_case "small arities" `Quick test_index_small_arities;
          Alcotest.test_case "higher arities" `Quick test_index_higher_arities;
          Alcotest.test_case "of_tuples" `Quick test_index_of_tuples;
          Alcotest.test_case "probe cache invalidation" `Quick
            test_probe_cache_invalidation;
        ] );
      ( "ef",
        [
          Alcotest.test_case "config equivalence" `Quick
            test_ef_config_equivalence;
          Alcotest.test_case "from-position equivalence" `Quick
            test_ef_from_position_equivalence;
        ] );
      ("differential", qcheck_cases);
    ]
