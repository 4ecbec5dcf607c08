(* Cross-library integration tests: the same mathematical fact computed by
   independent code paths must agree. These are the end-to-end checks that
   the toolbox's components compose the way the paper's arguments do. *)

module Signature = Fmtk_logic.Signature
module Formula = Fmtk_logic.Formula
module Parser = Fmtk_logic.Parser
module Transform = Fmtk_logic.Transform
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Graph = Fmtk_structure.Graph
module Gen = Fmtk_structure.Gen
module Eval = Fmtk_eval.Eval
module Compiled = Fmtk_eval.Compiled
module Compile = Fmtk_db.Compile
module Ef = Fmtk_games.Ef
module Fo_circuit = Fmtk_circuits.Fo_circuit
module Bounded_degree = Fmtk_locality.Bounded_degree
module Programs = Fmtk_datalog.Programs
module Almost_sure = Fmtk_zeroone.Almost_sure

let checkb msg = Alcotest.check Alcotest.bool msg
let f = Parser.parse_exn

let gen_graph =
  let open QCheck2.Gen in
  let* n = int_range 1 6 in
  let* edges =
    list_size (int_range 0 (n * 2))
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  return
    (Structure.make Signature.graph ~size:n
       [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ])

let gen_sentence =
  QCheck2.Gen.oneofl
    (List.map f
       [
         "exists x. E(x,x)";
         "forall x. exists y. E(x,y)";
         "exists x y. E(x,y) & !E(y,x)";
         "forall x y. E(x,y) -> E(y,x)";
         "exists x. forall y. E(x,y) | x = y";
       ])

(* Four independent implementations of FO truth: the recursive evaluator,
   the RA compiler, the AC0 circuit, and (through NNF/prenex) the
   transformed evaluator. *)
let prop_four_way_agreement =
  QCheck2.Test.make ~count:150 ~name:"eval = RA = circuit = transformed eval"
    QCheck2.Gen.(pair gen_graph gen_sentence)
    (fun (g, phi) ->
      let direct = Eval.sat g phi in
      let via_ra =
        match Compile.sat_any g phi with
        | Ok v -> v
        | Error (`Msg m) -> QCheck2.Test.fail_report m
      in
      let via_circuit =
        Fo_circuit.run
          (Fo_circuit.compile Signature.graph ~size:(Structure.size g) phi)
          g
      in
      let via_nnf = Eval.sat g (Transform.nnf phi) in
      let via_prenex = Eval.sat g (Transform.prenex phi) in
      direct = via_ra && direct = via_circuit && direct = via_nnf
      && direct = via_prenex)

(* TC computed three ways: matrix closure, Datalog, and the FO bounded
   unfolding. On graphs of size <= 3 every reachability is witnessed by a
   walk of <= 3 edges (a simple path of <= 2 edges, or a closed walk of
   exactly 3 for (u,u) on a triangle), so the unfolding is exact there. *)
let prop_tc_three_ways =
  QCheck2.Test.make ~count:100 ~name:"TC: matrix = datalog = bounded FO"
    gen_graph (fun g ->
      QCheck2.assume (Structure.size g <= 3);
      let m = Graph.transitive_closure g in
      let d = Programs.tc_of g in
      let phi =
        f
          "E(x,y) | (exists z. E(x,z) & E(z,y)) | (exists z w. E(x,z) & \
           E(z,w) & E(w,y))"
      in
      let fo = Eval.definable_relation g phi ~vars:[ "x"; "y" ] in
      Tuple.Set.equal m d && Tuple.Set.equal m fo)

(* The EF theorem, executed: duplicator wins n rounds iff the structures
   agree on the template sentences of rank <= n (one direction), and the
   extracted distinguishing sentence is evaluated by three engines. *)
let prop_ef_vs_distinguish_vs_engines =
  QCheck2.Test.make ~count:60 ~name:"EF game <-> distinguishing sentence <-> engines"
    QCheck2.Gen.(pair gen_graph gen_graph)
    (fun (a, b) ->
      let ra_sat s phi =
        match Compile.sat_any s phi with
        | Ok v -> v
        | Error (`Msg m) -> QCheck2.Test.fail_report m
      in
      match Ef.certify ~rounds:2 a b with
      | _, None, _ -> Ef.duplicator_wins ~rounds:2 a b
      | _, Some phi, _ ->
          Formula.quantifier_rank phi <= 2
          && Formula.free_vars phi = []
          && (not (Ef.duplicator_wins ~rounds:2 a b))
          && Eval.sat a phi && ra_sat a phi
          && (not (Eval.sat b phi))
          && not (ra_sat b phi))

(* Bounded-degree Hanf evaluation agrees with the RA engine. *)
let prop_bounded_degree_vs_ra =
  QCheck2.Test.make ~count:40 ~name:"Hanf-cached eval = RA eval on bounded degree"
    QCheck2.Gen.(pair gen_sentence (int_range 5 30))
    (fun (phi, n) ->
      let ev = Bounded_degree.make phi ~degree_bound:2 in
      let g = Gen.cycle n in
      let ra =
        match Compile.sat_any g phi with
        | Ok v -> v
        | Error (`Msg m) -> QCheck2.Test.fail_report m
      in
      Bounded_degree.eval ev g = ra)

(* Counting sentences vs structure sizes across all engines. *)
let test_cardinality_cross_engine () =
  for n = 1 to 5 do
    let s = Gen.set n in
    for k = 1 to 5 do
      let phi = Formula.at_least k in
      let direct = Eval.sat s phi in
      checkb
        (Printf.sprintf "at_least %d on %d (eval)" k n)
        (n >= k) direct;
      checkb
        (Printf.sprintf "at_least %d on %d (ra)" k n)
        direct
        (match Compile.sat_any s phi with
        | Ok v -> v
        | Error (`Msg m) -> Alcotest.fail m)
    done
  done

(* The full EVEN(<) -> CONN pipeline of §3.3 run end to end through the
   database engine, the graph algorithms, and the game certificates. *)
let test_full_pipeline_even_conn () =
  (* 1. EVEN not FO on orders (rank 2 certificate, exact solver). *)
  checkb "EVEN(<) rank-2 certificate" true
    (Fmtk.Method.game_rank ~rounds:2 ~query:Fmtk.Queries.even
       (Gen.linear_order 4) (Gen.linear_order 5)
    = Ok ());
  (* 2. The construction is FO (compiled through RA) and flips parity to
     connectivity. *)
  for n = 3 to 14 do
    let g = Fmtk.Reductions.conn_construction (Gen.linear_order n) in
    checkb
      (Printf.sprintf "parity transfer at %d" n)
      (n mod 2 = 1) (Graph.connected g)
  done;
  (* 3. Hence CONN is not FO — certified independently by Hanf locality. *)
  checkb "CONN Hanf certificate" true
    (Fmtk.Method.hanf_violation ~radius:2 ~query:Fmtk.Queries.connected
       (Gen.cycle 14)
       (Gen.union_of [ Gen.cycle 7; Gen.cycle 7 ])
    = Ok ())

(* ---------- FO-only consumers refuse extension nodes ---------- *)

(* One sentence per extension constructor, under an FO conjunct so the
   node is found below the root. *)
let extension_sentences =
  let open Formula in
  let loop x = Rel ("E", [ v x; v x ]) in
  let unary r = Exists ("x", Rel (r, [ v "x" ])) in
  List.map
    (fun (name, ext) -> (name, And (exists "y" (loop "y"), ext)))
    [
      ("Count_geq", Count_geq (2, "x", loop "x"));
      ("Ifp", Exists ("u", Ifp ("T", [ "x" ], loop "x", [ v "u" ])));
      ("Exists_set+Mem", Exists_set ("X", Exists ("x", Mem (v "x", "X"))));
      ("Forall_set+Mem", Forall_set ("X", Exists ("x", Mem (v "x", "X"))));
      ("Exists_rel", Exists_rel ("R", 1, unary "R"));
      ("Forall_rel", Forall_rel ("R", 1, unary "R"));
    ]

let test_fo_only_consumers_refuse () =
  let g = Gen.cycle 3 in
  (* Each consumer either raises [Invalid_argument] or answers [`Msg]. *)
  let raising call f =
    ignore (call f);
    Ok ()
  in
  let planned call f = Result.map ignore (call g f) in
  let consumers =
    [
      ("Compiled.compile", raising (Compiled.compile g));
      ("Compile.compile", raising Compile.compile);
      ("Compile.answers", planned Compile.answers);
      ("Compile.answers_any", planned Compile.answers_any);
      ("Compile.sat", planned Compile.sat);
      ("Compile.sat_any", planned Compile.sat_any);
      ("Transform.nnf", raising Transform.nnf);
      ("Transform.prenex", raising Transform.prenex);
      ("Transform.simplify", raising Transform.simplify);
      ("Transform.rename_apart", raising Transform.rename_apart);
      ( "Transform.relativize",
        raising (Transform.relativize ~guard:(fun x -> Formula.eq (Formula.v x) (Formula.v x)))
      );
      ("Fo_circuit.compile", raising (Fo_circuit.compile Signature.graph ~size:3));
      ("Almost_sure.decide", raising (fun f -> Almost_sure.decide f));
      ("Bounded_degree.make", raising (Bounded_degree.make ~degree_bound:2));
    ]
  in
  List.iter
    (fun (ename, phi) ->
      checkb (ename ^ " is not safe-range") false (Compile.safe_range phi);
      List.iter
        (fun (cname, consumer) ->
          (* Compiled runs counting natively, as a bounded witness scan,
             and fixpoints through staged cells; it refuses only the
             second-order constructors. *)
          let refuse =
            not
              (cname = "Compiled.compile"
              && (ename = "Count_geq" || ename = "Ifp"))
          in
          checkb
            (Printf.sprintf "%s %s %s" cname
               (if refuse then "refuses" else "accepts")
               ename)
            refuse
            (match consumer phi with
            | Ok () -> false
            | Error (`Msg _) -> true
            | exception Invalid_argument _ -> true))
        consumers)
    extension_sentences

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_four_way_agreement;
      prop_tc_three_ways;
      prop_ef_vs_distinguish_vs_engines;
      prop_bounded_degree_vs_ra;
    ]

let () =
  Alcotest.run "fmtk_integration"
    [
      ( "cross-engine",
        Alcotest.test_case "cardinality sentences" `Quick
          test_cardinality_cross_engine
        :: qcheck_cases );
      ( "pipeline",
        [ Alcotest.test_case "EVEN -> CONN end to end" `Quick test_full_pipeline_even_conn ] );
      ( "fo-only",
        [
          Alcotest.test_case "consumers refuse extension nodes" `Quick
            test_fo_only_consumers_refuse;
        ] );
    ]
