(* Differential tests for the cost-based planner pipeline: the planned
   physical engine, the naive algebra interpreter, the compiled
   tree-walking evaluator and the recursive evaluator must all agree on
   random formula/structure pairs; delta-maintained materializations
   must track full re-evaluation under random insert/delete streams; and
   an injected budget fault may only ever produce a clean give-up, never
   a wrong answer. *)

module Signature = Fmtk_logic.Signature
module Formula = Fmtk_logic.Formula
module Term = Fmtk_logic.Term
module Parser = Fmtk_logic.Parser
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Gen = Fmtk_structure.Gen
module Eval = Fmtk_eval.Eval
module Compiled = Fmtk_eval.Compiled
module Algebra = Fmtk_db.Algebra
module Compile = Fmtk_db.Compile
module Planner = Fmtk_db.Planner
module Physical = Fmtk_db.Physical
module Delta = Fmtk_db.Delta
module Relation = Fmtk_db.Relation
module Budget = Fmtk_runtime.Budget

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let f = Parser.parse_exn

(* CI's fault-injection pass (FMTK_INJECT=1) runs the delta property on
   four times as many update streams. *)
let inject_scale = if Sys.getenv_opt "FMTK_INJECT" = Some "1" then 4 else 1

(* ---------- generators ---------- *)

let sg = Signature.make [ ("E", 2); ("P", 1) ]

let gen_structure =
  let open QCheck2.Gen in
  let* n = int_range 1 5 in
  let* edges =
    list_size (int_range 0 (2 * n))
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  let* ps = list_size (int_range 0 n) (int_range 0 (n - 1)) in
  return
    (Structure.make sg ~size:n
       [
         ("E", List.map (fun (u, v) -> [| u; v |]) edges);
         ("P", List.map (fun p -> [| p |]) ps);
       ])

let gen_var = QCheck2.Gen.oneofl [ "x"; "y"; "z"; "w" ]

let gen_formula =
  let open QCheck2.Gen in
  let atom =
    oneof
      [
        (let* x = gen_var and* y = gen_var in
         return (Formula.Rel ("E", [ Term.Var x; Term.Var y ])));
        (let* x = gen_var in
         return (Formula.Rel ("P", [ Term.Var x ])));
        (let* x = gen_var and* y = gen_var in
         return (Formula.Eq (Term.Var x, Term.Var y)));
      ]
  in
  sized_size (int_range 0 7)
  @@ fix (fun self n ->
         if n <= 0 then atom
         else
           oneof
             [
               atom;
               map (fun a -> Formula.Not a) (self (n - 1));
               (let* a = self (n / 2) and* b = self (n / 2) in
                return (Formula.And (a, b)));
               (let* a = self (n / 2) and* b = self (n / 2) in
                return (Formula.Or (a, b)));
               (let* a = self (n / 2) and* b = self (n / 2) in
                return (Formula.Implies (a, b)));
               (let* x = gen_var and* a = self (n - 1) in
                return (Formula.Exists (x, a)));
               (let* x = gen_var and* a = self (n - 1) in
                return (Formula.Forall (x, a)));
             ])

(* ---------- planned vs three independent oracles ---------- *)

let prop_planned_matches_oracles =
  QCheck2.Test.make ~count:500 ~name:"planned = naive = compiled = direct"
    QCheck2.Gen.(pair gen_structure gen_formula)
    (fun (s, phi) ->
      let fv = Formula.free_vars phi in
      let planned =
        match Compile.answers_any s phi with
        | Ok (_, ts) -> ts
        | Error (`Msg m) -> QCheck2.Test.fail_reportf "planner: %s" m
      in
      let naive =
        match Compile.answers_naive s phi with
        | Ok (_, ts) -> ts
        | Error (`Msg m) -> QCheck2.Test.fail_reportf "naive: %s" m
      in
      let direct = Eval.definable_relation s phi ~vars:fv in
      let compiled =
        Compiled.definable_relation_of (Compiled.compile_with s ~vars:fv phi)
      in
      Tuple.Set.equal planned naive
      && Tuple.Set.equal planned direct
      && Tuple.Set.equal planned compiled)

(* The logical rewriter alone preserves semantics under the naive
   interpreter (so a planner win can never come from changing the
   question). *)
let prop_rewrite_preserves_semantics =
  QCheck2.Test.make ~count:300 ~name:"rewrite preserves Algebra.eval"
    QCheck2.Gen.(pair gen_structure gen_formula)
    (fun (s, phi) ->
      let db = Algebra.Database.of_structure s in
      let e =
        Algebra.Project (Formula.free_vars phi, Compile.compile phi)
      in
      let r0 =
        match Algebra.eval db e with
        | Ok r -> r
        | Error m -> QCheck2.Test.fail_reportf "eval: %s" m
      in
      let r1 =
        match Algebra.eval db (Planner.rewrite db e) with
        | Ok r -> r
        | Error m -> QCheck2.Test.fail_reportf "eval (rewritten): %s" m
      in
      Relation.attrs r0 = Relation.attrs r1
      && Tuple.Set.equal (Relation.tuples r0) (Relation.tuples r1))

(* ---------- delta maintenance vs full re-evaluation ---------- *)

(* Every root kind: a renamed base ([E(x,y)]), a projection over a
   selection ([E(x,x)]), a projection with multiplicities
   ([exists z. ...]), a join, a union and a difference. *)
let delta_formulas =
  List.map f
    [
      "E(x,y)";
      "E(x,x)";
      "E(x,y) & E(y,z)";
      "E(x,y) & !E(y,x)";
      "exists z. E(x,z) & E(z,y)";
      "P(x) & E(x,y)";
      "E(x,y) | E(y,x)";
      "forall y. E(x,y) -> P(y)";
      "!(exists y. E(x,y))";
    ]

let apply_structure s rel tup add =
  let cur = Structure.rel s rel in
  let tuples =
    if add then Tuple.Set.add tup cur else Tuple.Set.remove tup cur
  in
  Structure.with_rel s rel (Array.length tup) tuples

let gen_update n =
  let open QCheck2.Gen in
  let* add = bool in
  let* rel = oneofl [ "E"; "P" ] in
  let* tup =
    if rel = "E" then
      map
        (fun (u, v) -> [| u; v |])
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    else map (fun u -> [| u |]) (int_range 0 (n - 1))
  in
  return (rel, tup, add)

let first_50 ts = List.of_seq (Seq.take 50 (Tuple.Set.to_seq ts))

(* After every update the maintained answer equals a fresh one: the same
   set, the same cached count, and the same 50-tuple sample the server
   sends. Each update is applied twice when [again] is set, so the
   stream also carries no-op inserts and deletes, on the root atom
   among others. *)
let prop_delta_tracks_recompute =
  QCheck2.Test.make ~count:(60 * inject_scale)
    ~name:"delta-maintained = recomputed under insert/delete streams"
    QCheck2.Gen.(
      let* s = gen_structure in
      let* phi = oneofl delta_formulas in
      let* ups =
        list_size (int_range 1 40) (pair (gen_update (Structure.size s)) bool)
      in
      return (s, phi, ups))
    (fun (s, phi, ups) ->
      let fv = Formula.free_vars phi in
      let e = Algebra.Project (fv, Compile.compile phi) in
      let db = Algebra.Database.of_structure s in
      let d =
        match Delta.materialize db e with
        | Ok d -> d
        | Error m -> QCheck2.Test.fail_reportf "materialize: %s" m
      in
      let agrees mirror =
        let r = Delta.result d in
        let fresh =
          match Compile.answers_naive mirror phi with
          | Ok (_, ts) -> ts
          | Error (`Msg m) -> QCheck2.Test.fail_reportf "naive: %s" m
        in
        Tuple.Set.equal (Relation.tuples r) fresh
        && Relation.cardinality r = Tuple.Set.cardinal fresh
        && first_50 (Relation.tuples r) = first_50 fresh
      in
      let mirror = ref s in
      agrees s
      && List.for_all
           (fun ((rel, tup, add), again) ->
             List.for_all
               (fun () ->
                 (match Delta.update d ~rel tup ~add with
                 | Ok () -> ()
                 | Error m -> QCheck2.Test.fail_reportf "delta update: %s" m);
                 mirror := apply_structure !mirror rel tup add;
                 agrees !mirror)
               (if again then [ (); () ] else [ () ]))
           ups)

(* A plan keeps the arities it checks updates against, not the database
   it was built from: a [P(x)] plan over a structure whose [E] is a large
   CSR relation is exactly as big as one over an empty [E], before and
   after an update to [E], and that update forces nothing. *)
let test_plan_pins_no_structure () =
  let n = 2000 in
  let ps = Tuple.Set.of_list (List.init 10 (fun i -> [| 3 * i |])) in
  let with_edges m =
    let src = Array.init m (fun i -> i mod n) and dst = Array.init m (fun i -> i / n) in
    Structure.with_rel (Structure.of_graph sg ~size:n [ ("E", (src, dst)) ]) "P" 1 ps
  in
  let big = with_edges 200_000 in
  checkb "E is CSR-backed" true (Structure.rel_backend big "E" = `Csr);
  let plan s =
    match
      Delta.materialize (Algebra.Database.of_structure s)
        (Algebra.Project ([ "x" ], Compile.compile (f "P(x)")))
    with
    | Ok d -> d
    | Error m -> Alcotest.fail m
  in
  let small_plan = plan (with_edges 0) and big_plan = plan big in
  let words d = Obj.reachable_words (Obj.repr d) in
  checki "plan size does not depend on E" (words small_plan) (words big_plan);
  List.iter
    (fun d ->
      match Delta.update d ~rel:"E" [| 0; n - 1 |] ~add:true with
      | Ok () -> ()
      | Error m -> Alcotest.fail m)
    [ small_plan; big_plan ];
  checki "nor after an update to E" (words small_plan) (words big_plan);
  checkb "answer unchanged" true
    (Tuple.Set.equal (Relation.tuples (Delta.result big_plan)) ps);
  checkb "arity error refused" true
    (Result.is_error (Delta.update big_plan ~rel:"E" [| 0 |] ~add:true));
  checkb "unknown relation refused" true
    (Result.is_error (Delta.update big_plan ~rel:"R" [| 0 |] ~add:true))

(* ---------- budget fault injection: clean give-ups only ---------- *)

let fault_structure =
  Structure.make sg ~size:5
    [
      ("E", [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 3; 4 |]; [| 4; 0 |]; [| 0; 2 |] ]);
      ("P", [ [| 1 |]; [| 3 |] ]);
    ]

let test_budget_fault_injection () =
  let phis =
    List.map f
      [
        "E(x,y) & E(y,z)";
        "exists z. E(x,z) & E(z,y)";
        "E(x,y) & !E(y,x)";
        "forall y. E(x,y) -> P(y)";
      ]
  in
  List.iter
    (fun phi ->
      let oracle =
        match Compile.answers_naive fault_structure phi with
        | Ok (_, ts) -> ts
        | Error (`Msg m) -> Alcotest.fail m
      in
      for n = 1 to 30 do
        let budget = Budget.create ~inject:(Budget.Exhaust_at n) () in
        match Compile.answers_any ~budget fault_structure phi with
        | Ok (_, ts) ->
            checkb
              (Printf.sprintf "exhaust at %d: answer still exact" n)
              true (Tuple.Set.equal ts oracle)
        | Error (`Msg _) -> ()
        | exception Budget.Exhausted _ -> ()
      done)
    phis;
  (* Same discipline for delta maintenance: a fault mid-propagation may
     abort the run, never corrupt a result that is then reported. *)
  let phi = f "E(x,y) & E(y,z)" in
  let e = Algebra.Project (Formula.free_vars phi, Compile.compile phi) in
  for n = 1 to 30 do
    let budget = Budget.create ~inject:(Budget.Exhaust_at n) () in
    let db = Algebra.Database.of_structure fault_structure in
    match
      let d =
        match Delta.materialize ~budget db e with
        | Ok d -> d
        | Error m -> Alcotest.fail m
      in
      List.iter
        (fun (tup, add) ->
          match Delta.update ~budget d ~rel:"E" tup ~add with
          | Ok () -> ()
          | Error m -> Alcotest.fail m)
        [ ([| 1; 3 |], true); ([| 0; 1 |], false); ([| 1; 3 |], false) ];
      d
    with
    | d ->
        let mirror =
          apply_structure
            (apply_structure
               (apply_structure fault_structure "E" [| 1; 3 |] true)
               "E" [| 0; 1 |] false)
            "E" [| 1; 3 |] false
        in
        let fresh =
          match Compile.answers_naive mirror phi with
          | Ok (_, ts) -> ts
          | Error (`Msg m) -> Alcotest.fail m
        in
        checkb
          (Printf.sprintf "delta under exhaust at %d: exact" n)
          true
          (Tuple.Set.equal (Relation.tuples (Delta.result d)) fresh)
    | exception Budget.Exhausted _ -> ()
  done

(* ---------- plan shapes ---------- *)

(* An acyclic multi-join goes through the GYO reducer: the physical plan
   carries semijoins, and the answers still match the oracle. *)
let test_acyclic_semijoin_plan () =
  let sg3 = Signature.make [ ("R", 2); ("S", 2); ("T", 2) ] in
  let s =
    Structure.make sg3 ~size:6
      [
        ("R", [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 5; 5 |] ]);
        ("S", [ [| 1; 2 |]; [| 2; 4 |]; [| 3; 3 |] ]);
        ("T", [ [| 2; 0 |]; [| 4; 5 |]; [| 3; 1 |] ]);
      ]
  in
  let phi = f "R(x,y) & S(y,z) & T(z,w)" in
  let fv = Formula.free_vars phi in
  let db = Algebra.Database.of_structure s in
  let e = Algebra.Project (fv, Compile.compile phi) in
  (match Planner.explain db e with
  | Error m -> Alcotest.fail m
  | Ok ex ->
      let pp = Format.asprintf "%a" Physical.pp ex.Planner.physical in
      checkb "acyclic plan uses semijoin reduction" true
        (let contains hay needle =
           let nh = String.length hay and nn = String.length needle in
           let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
           go 0
         in
         contains pp "semijoin"));
  let planned =
    match Compile.answers_any s phi with
    | Ok (_, ts) -> ts
    | Error (`Msg m) -> Alcotest.fail m
  in
  let naive =
    match Compile.answers_naive s phi with
    | Ok (_, ts) -> ts
    | Error (`Msg m) -> Alcotest.fail m
  in
  checkb "acyclic answers match" true (Tuple.Set.equal planned naive)

(* Hand-picked shapes that exercise the padding/anti/copy paths of the
   join planner (pure equalities, pure inequalities, negated atoms,
   cardinality sentences). *)
let test_tricky_shapes () =
  let s = fault_structure in
  List.iter
    (fun txt ->
      let phi = f txt in
      let planned =
        match Compile.answers_any s phi with
        | Ok (_, ts) -> ts
        | Error (`Msg m) -> Alcotest.failf "%s: %s" txt m
      in
      let naive =
        match Compile.answers_naive s phi with
        | Ok (_, ts) -> ts
        | Error (`Msg m) -> Alcotest.failf "%s: %s" txt m
      in
      checkb txt true (Tuple.Set.equal planned naive))
    [
      "x = y";
      "x != y";
      "x = y & E(x,z)";
      "!(x = y) & P(x)";
      "exists y. !E(x,y)";
      "!(exists y. E(x,y))";
      "forall y. E(x,y)";
      "E(x,x)";
      "E(x,y) & x != y";
    ];
  (* counting sentences across domain sizes *)
  for n = 1 to 5 do
    let set_n = Gen.set n in
    for k = 1 to 5 do
      match Compile.sat_any set_n (Formula.at_least k) with
      | Ok v ->
          checkb (Printf.sprintf "at_least %d on %d" k n) (n >= k) v
      | Error (`Msg m) -> Alcotest.fail m
    done
  done

(* The safe-range gate: [answers]/[sat] refuse domain-dependent queries
   with a clean [`Msg]; the [_any] variants answer them under the
   active-domain convention. *)
let test_safe_range_gate () =
  let s = fault_structure in
  (match Compile.answers s (f "E(x,y) & E(y,z)") with
  | Ok _ -> ()
  | Error (`Msg m) -> Alcotest.failf "safe-range query refused: %s" m);
  (match Compile.answers s (f "!E(x,y)") with
  | Ok _ -> Alcotest.fail "unsafe query accepted"
  | Error (`Msg m) ->
      checkb "refusal names safe-range" true
        (let contains hay needle =
           let nh = String.length hay and nn = String.length needle in
           let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
           go 0
         in
         contains m "safe-range"));
  match Compile.answers_any s (f "!E(x,y)") with
  | Ok (_, ts) ->
      let direct =
        Eval.definable_relation s (f "!E(x,y)") ~vars:[ "x"; "y" ]
      in
      checkb "padded variant answers" true (Tuple.Set.equal ts direct)
  | Error (`Msg m) -> Alcotest.fail m

(* An index probe replaces a scan leaf's execution with bare membership
   of the pattern tuple, so any scan constraint the pattern cannot
   express must force the SemiJoin fallback. These shapes are
   unreachable from [Compile] output (repeated variables are projected
   to one column and constants become literal join leaves) but
   [Planner.plan] is public over arbitrary algebra terms: a constant
   selection or an attribute equality landing on positions the probe
   already determines used to be dropped silently, turning the probe
   into a superset of the fused predicate. *)
let test_probe_residual_constraints () =
  let sg2 = Signature.make [ ("R", 2); ("S", 2) ] in
  let s =
    Structure.make sg2 ~size:4
      [
        ( "R",
          [ [| 0; 1 |]; [| 1; 1 |]; [| 2; 2 |]; [| 3; 0 |]; [| 1; 0 |]; [| 2; 1 |] ]
        );
        ("S", [ [| 0; 1 |]; [| 1; 1 |] ]);
      ]
  in
  let db = Algebra.Database.of_structure s in
  let leaf rel = Algebra.Rename ([ ("#1", "x"); ("#2", "y") ], Base rel) in
  List.iter
    (fun (label, e) ->
      let e = Algebra.Project ([ "x"; "y" ], e) in
      let naive =
        match Algebra.eval db e with
        | Ok r -> Relation.tuples r
        | Error m -> Alcotest.failf "%s: eval: %s" label m
      in
      let planned =
        match Planner.plan db e with
        | Error m -> Alcotest.failf "%s: plan: %s" label m
        | Ok p -> (
            match Physical.run db p with
            | Ok r -> Relation.tuples r
            | Error m -> Alcotest.failf "%s: run: %s" label m)
      in
      checkb label true (Tuple.Set.equal naive planned))
    [
      (* constant on a position the probe pattern already determines *)
      ( "probe keeps const selection",
        Algebra.Join (leaf "S", Select (Eq_const ("x", 0), leaf "R")) );
      (* equality between two already-determined positions *)
      ( "probe keeps attr equality",
        Algebra.Join (leaf "S", Select (Eq_attr ("x", "y"), leaf "R")) );
      (* same residuals on the anti side *)
      ( "anti probe keeps const selection",
        Algebra.Diff (leaf "S", Select (Eq_const ("x", 0), leaf "R")) );
      ( "anti probe keeps attr equality",
        Algebra.Diff (leaf "S", Select (Eq_attr ("x", "y"), leaf "R")) );
      (* a - (a ⋈ g) plans as the anti-join a ▷ g: the same residuals *)
      ( "anti-join keeps const selection",
        Algebra.Diff
          (leaf "S", Join (leaf "S", Select (Eq_const ("x", 0), leaf "R"))) );
      ( "anti-join keeps attr equality",
        Algebra.Diff
          (leaf "S", Join (leaf "S", Select (Eq_attr ("x", "y"), leaf "R"))) );
      ( "anti-join on a projection",
        Algebra.Diff
          ( Join (leaf "S", leaf "R"),
            Join
              ( Join (leaf "S", leaf "R"),
                Rename ([ ("#1", "y") ], Project ([ "#1" ], Base "S")) ) ) );
    ]

(* A structure may name a relation "adom". It is the user's relation: the
   active-domain table the compiled queries pad with keeps its own name,
   so neither replaces the other. *)
let test_user_adom_relation () =
  let s =
    Fmtk_structure.Structure_io.parse_exn
      "domain 3\nrel E/2 =\nrel adom/1 = (0)\n"
  in
  List.iter
    (fun txt ->
      let phi = f txt in
      let vars, planned =
        match Compile.answers_any s phi with
        | Ok answer -> answer
        | Error (`Msg m) -> Alcotest.failf "%s: %s" txt m
      in
      let vars', direct = Eval.answers s phi in
      checkb txt true (vars = vars' && Tuple.Set.equal planned direct))
    [ "!E(x,x)"; "adom(x)"; "!adom(x)"; "adom(x) & !E(x,y)"; "forall y. adom(y)" ]

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_planned_matches_oracles;
      prop_rewrite_preserves_semantics;
      prop_delta_tracks_recompute;
    ]

let () =
  Alcotest.run "fmtk_planner"
    [
      ("differential", qcheck_cases);
      ( "faults",
        [
          Alcotest.test_case "budget injection never lies" `Quick
            test_budget_fault_injection;
        ] );
      ( "delta",
        [
          Alcotest.test_case "plan pins no structure" `Quick
            test_plan_pins_no_structure;
        ] );
      ( "plans",
        [
          Alcotest.test_case "acyclic semijoin reduction" `Quick
            test_acyclic_semijoin_plan;
          Alcotest.test_case "tricky shapes" `Quick test_tricky_shapes;
          Alcotest.test_case "probe residual constraints" `Quick
            test_probe_residual_constraints;
          Alcotest.test_case "safe-range gate" `Quick test_safe_range_gate;
          Alcotest.test_case "user relation named adom" `Quick
            test_user_adom_relation;
        ] );
    ]
