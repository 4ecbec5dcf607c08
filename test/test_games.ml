(* Tests for Fmtk_games: EF solver, distinguishing formulas, the strategy
   library, pebble games. These certify the paper's §3.2 results on
   concrete instances. *)

module Signature = Fmtk_logic.Signature
module Formula = Fmtk_logic.Formula
module Structure = Fmtk_structure.Structure
module Gen = Fmtk_structure.Gen
module Eval = Fmtk_eval.Eval
module Ef = Fmtk_games.Ef
module Strategy = Fmtk_games.Strategy
module Pebble = Fmtk_games.Pebble

let checkb msg = Alcotest.check Alcotest.bool msg

let graph_of edges ~size =
  Structure.make Signature.graph ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* ---------- EF solver on sets (slides 44-45) ---------- *)

let test_ef_sets () =
  (* Duplicator wins the n-round game on sets of size >= n. *)
  for n = 0 to 3 do
    for m = 1 to 5 do
      for k = 1 to 5 do
        let expected = m = k || (m >= n && k >= n) in
        checkb
          (Printf.sprintf "sets m=%d k=%d n=%d" m k n)
          expected
          (Ef.duplicator_wins ~rounds:n (Gen.set m) (Gen.set k))
      done
    done
  done

let test_ef_even_sets () =
  (* The EVEN proof: 2n vs 2n+1 element sets are ≡n. *)
  for n = 1 to 3 do
    checkb
      (Printf.sprintf "2n vs 2n+1 at n=%d" n)
      true
      (Ef.duplicator_wins ~rounds:n (Gen.set (2 * n)) (Gen.set ((2 * n) + 1)))
  done

(* ---------- EF solver agrees with ≡n on formulas ---------- *)

(* a ≡n b implies agreement on all qr <= n sentences; disagreement on a
   qr <= n sentence implies spoiler wins. *)
let sentences_qr2 =
  List.map Fmtk_logic.Parser.parse_exn
    [
      "exists x. E(x,x)";
      "exists x y. E(x,y)";
      "forall x. exists y. E(x,y)";
      "exists x. forall y. E(x,y)";
      "forall x y. E(x,y) -> E(y,x)";
    ]

let test_ef_respects_sentences () =
  let graphs =
    [
      graph_of [ (0, 1); (1, 0) ] ~size:2;
      graph_of [ (0, 0) ] ~size:2;
      graph_of [ (0, 1); (1, 2) ] ~size:3;
      Gen.cycle 3;
      Gen.complete 3;
    ]
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          if Ef.duplicator_wins ~rounds:2 a b then
            List.iter
              (fun phi ->
                checkb
                  (Printf.sprintf "≡2 agreement on %s" (Formula.to_string phi))
                  (Eval.sat a phi) (Eval.sat b phi))
              sentences_qr2)
        graphs)
    graphs

(* ---------- Theorem 3.1: linear orders ---------- *)

let test_linear_orders_theorem () =
  (* m, k >= 2^n ==> L_m ≡n L_k; exact characterization: m = k or both >=
     2^n - 1. Cross-validate solver against the closed form for n <= 2 and
     a diagonal of n = 3 cases. *)
  for n = 0 to 2 do
    for m = 0 to 6 do
      for k = 0 to 6 do
        let expected = Strategy.linear_orders_equiv ~rounds:n m k in
        checkb
          (Printf.sprintf "L%d vs L%d at n=%d" m k n)
          expected
          (Ef.duplicator_wins ~rounds:n (Gen.linear_order m) (Gen.linear_order k))
      done
    done
  done;
  (* n = 3: boundary 2^3 - 1 = 7. *)
  List.iter
    (fun (m, k, expected) ->
      checkb
        (Printf.sprintf "L%d vs L%d at n=3" m k)
        expected
        (Ef.duplicator_wins ~rounds:3 (Gen.linear_order m) (Gen.linear_order k)))
    [ (7, 8, true); (6, 7, false); (7, 9, true); (8, 9, true); (5, 6, false) ]

(* ---------- Distinguishing formulas ---------- *)

(* The separating formula of a certified solve, if any. *)
let certificate ?start ~rounds a b =
  let _, phi, _ = Ef.certify ?start ~rounds a b in
  phi

(* [s] with the relations of [sg] it does not declare added empty. *)
let pad sg s =
  List.fold_left
    (fun s (r, k) ->
      if Signature.mem_rel (Structure.signature s) r then s
      else Structure.with_rel s r k Fmtk_structure.Tuple.Set.empty)
    s (Signature.rels sg)

let check_distinguishes ~rounds a b =
  match Ef.certify ~rounds a b with
  | Ef.Distinguished, Some phi, _ ->
      let sg = Fmtk_structure.Iso.joint_signature a b in
      checkb
        (Printf.sprintf "qr of %s" (Formula.to_string phi))
        true
        (Formula.quantifier_rank phi <= rounds);
      checkb "a sentence" true (Formula.free_vars phi = []);
      checkb "A satisfies it" true (Eval.sat (pad sg a) phi);
      checkb "B falsifies it" false (Eval.sat (pad sg b) phi)
  | _ -> Alcotest.fail "expected a distinguishing sentence"

let test_distinguish_sets () =
  (* Sets of sizes 2 and 3 are distinguished at rank 3 but not rank 2. *)
  check_distinguishes ~rounds:3 (Gen.set 3) (Gen.set 2);
  checkb "rank 2 cannot" true
    (certificate ~rounds:2 (Gen.set 3) (Gen.set 2) = None);
  (* The empty structure: ∃x.⊤ and ∀x.⊥ separate it at rank 1. *)
  check_distinguishes ~rounds:1 (Gen.set 1) (Gen.set 0);
  check_distinguishes ~rounds:1 (Gen.set 0) (Gen.set 1)

let test_distinguish_graphs () =
  (* Loop vs no loop: rank 1. *)
  check_distinguishes ~rounds:1 (graph_of [ (0, 0) ] ~size:1) (graph_of [] ~size:1);
  (* C3 vs C4 (directed cycles). *)
  check_distinguishes ~rounds:3 (Gen.cycle 3) (Gen.cycle 4);
  (* Orders L2 vs L3 at rank 2 (see slide 46 discussion). *)
  check_distinguishes ~rounds:2 (Gen.linear_order 3) (Gen.linear_order 2);
  (* Different signatures: a bare set has no edges, so "no edge" holds
     there and fails on the 3-cycle, in either order of play. *)
  check_distinguishes ~rounds:2 (Gen.set 3) (Gen.cycle 3);
  check_distinguishes ~rounds:2 (Gen.cycle 3) (Gen.set 3)

let test_distinguish_agrees_with_solver () =
  let instances =
    [
      (Gen.set 2, Gen.set 3, 2);
      (Gen.set 2, Gen.set 3, 3);
      (Gen.cycle 3, Gen.cycle 4, 2);
      (Gen.cycle 3, Gen.cycle 4, 3);
      (Gen.linear_order 3, Gen.linear_order 4, 2);
      (Gen.path 3, Gen.path 4, 2);
    ]
  in
  List.iter
    (fun (a, b, n) ->
      let dup_wins = Ef.duplicator_wins ~rounds:n a b in
      let verdict, phi, (stats : Ef.stats) = Ef.certify ~rounds:n a b in
      let _, (plain : Ef.stats) =
        Ef.solve_verdict
          ~config:{ Ef.default_config with workers = Some 1 }
          ~rounds:n a b
      in
      checkb
        (Printf.sprintf "solver vs extractor (n=%d)" n)
        (not dup_wins) (phi <> None);
      checkb
        (Printf.sprintf "certified verdict (n=%d)" n)
        true
        (verdict = if dup_wins then Ef.Equivalent else Ef.Distinguished);
      checkb
        (Printf.sprintf "same positions as the plain solve (n=%d)" n)
        true
        (stats.positions = plain.positions))
    instances

let test_games_from_position () =
  (* Starting positions: pinned pebbles restrict the duplicator. *)
  let a = Gen.linear_order 4 and b = Gen.linear_order 4 in
  (* Identity-compatible start: still a win. *)
  checkb "compatible start" true
    (fst (Ef.solve ~start:[ (0, 0); (3, 3) ] ~rounds:2 a b));
  (* Order-violating start is an immediate loss. *)
  checkb "broken start" false
    (fst (Ef.solve ~start:[ (0, 3); (3, 0) ] ~rounds:0 a b));
  (* Start pairing the minimum with a middle element: one round suffices
     for the spoiler (play something below the middle element). *)
  checkb "skewed start loses" false
    (fst (Ef.solve ~start:[ (0, 2) ] ~rounds:1 a b));
  (* With zero rounds the same position survives (it is a partial iso). *)
  checkb "skewed start is still a partial iso" true
    (fst (Ef.solve ~start:[ (0, 2) ] ~rounds:0 a b))

let test_distinguish_open_formula () =
  (* From the skewed start (0 ↦ 2) on L4 vs L4, extract an open formula
     phi(x1) that holds of 0 in A but fails of 2 in B. *)
  let a = Gen.linear_order 4 and b = Gen.linear_order 4 in
  let holds s phi env =
    Eval.holds s phi
      ~env:(List.fold_left (fun e (x, v) -> Eval.bind x v e) Eval.empty_env env)
  in
  (match certificate ~start:[ (0, 2) ] ~rounds:1 a b with
  | None -> Alcotest.fail "expected a distinguishing formula"
  | Some phi ->
      checkb "qr <= 1" true (Formula.quantifier_rank phi <= 1);
      Alcotest.(check (list string)) "free variable" [ "x1" ] (Formula.free_vars phi);
      checkb "holds at 0 in A" true (holds a phi [ ("x1", 0) ]);
      checkb "fails at 2 in B" false (holds b phi [ ("x1", 2) ]));
  (* A start that is not a partial isomorphism: rank 0 already
     separates, by a literal over the start pebbles. *)
  match Ef.certify ~start:[ (0, 3); (3, 0) ] ~rounds:2 a b with
  | Ef.Distinguished, Some phi, _ ->
      checkb "a literal" true (Formula.quantifier_rank phi = 0);
      checkb "holds at (0,3) in A" true (holds a phi [ ("x1", 0); ("x2", 3) ]);
      checkb "fails at (3,0) in B" false (holds b phi [ ("x1", 3); ("x2", 0) ])
  | _ -> Alcotest.fail "expected a literal for a broken start"

(* ---------- Strategy library ---------- *)

let test_strategy_sets () =
  for m = 2 to 5 do
    for k = 2 to 5 do
      let a = Gen.set m and b = Gen.set k in
      let rounds = min m k in
      checkb
        (Printf.sprintf "sets strategy %d/%d survives %d rounds" m k rounds)
        true
        (Strategy.verify ~rounds a b (Strategy.sets a b) = None)
    done
  done

let test_strategy_linear_orders () =
  (* The distance-doubling strategy survives n rounds on L_m, L_k with
     m, k >= 2^n. *)
  List.iter
    (fun (m, k, n) ->
      let a = Gen.linear_order m and b = Gen.linear_order k in
      checkb
        (Printf.sprintf "order strategy L%d/L%d for %d rounds" m k n)
        true
        (Strategy.verify ~rounds:n a b (Strategy.linear_orders m k) = None))
    [ (4, 5, 2); (5, 6, 2); (8, 9, 3); (8, 11, 3); (16, 17, 4) ]

let test_strategy_successor_chains () =
  (* The "successor relation would do" remark: the doubled-threshold
     strategy wins on successor chains of sizes >= 2^(rounds+1). *)
  List.iter
    (fun (m, k, n) ->
      let a = Gen.successor m and b = Gen.successor k in
      checkb
        (Printf.sprintf "successor strategy S%d/S%d for %d rounds" m k n)
        true
        (Strategy.verify ~rounds:n a b (Strategy.successor_chains m k) = None))
    [ (8, 9, 2); (8, 12, 2); (16, 17, 3) ];
  (* Sanity via the exact solver: big-enough successor chains are ≡2. *)
  checkb "S8 ≡2 S9 (solver)" true
    (Ef.duplicator_wins ~rounds:2 (Gen.successor 8) (Gen.successor 9))

let test_strategy_directed_cycles () =
  (* Wins when both sizes >= 2^(rounds+2); exhaustively verified. *)
  List.iter
    (fun (m, k, n) ->
      let a = Gen.cycle m and b = Gen.cycle k in
      checkb
        (Printf.sprintf "cycle strategy C%d/C%d for %d rounds" m k n)
        true
        (Strategy.verify ~rounds:n a b (Strategy.directed_cycles m k) = None))
    [ (8, 9, 1); (16, 17, 2); (16, 20, 2) ];
  (* Solver agrees cycles of large equal-ish sizes are ≡2. *)
  checkb "C16 ≡2 C17 (solver)" true
    (Ef.duplicator_wins ~rounds:2 (Gen.cycle 16) (Gen.cycle 17))

let test_strategy_union_composition () =
  (* Compose set strategies across a disjoint union of two edgeless
     graphs — the union is again ≡n. *)
  let g n = graph_of [] ~size:n in
  let a1 = g 3 and b1 = g 4 and a2 = g 5 and b2 = g 3 in
  let s =
    Strategy.disjoint_union ~a1 ~b1 ~a2 ~b2
      (Strategy.sets a1 b1) (Strategy.sets a2 b2)
  in
  let a = Structure.disjoint_union a1 a2 and b = Structure.disjoint_union b1 b2 in
  checkb "composed strategy survives 3 rounds" true
    (Strategy.verify ~rounds:3 a b s = None)

let test_strategy_out_of_domain () =
  (* A reply outside the other structure's domain loses: index probes
     answer false there, so it must not pass as an isolated point. On
     set 0 vs set 3 this bogus strategy would certify a false ≡1. *)
  let bogus ~rounds_left:_ _ _ _ = 99 in
  let a = Gen.set 0 and b = Gen.set 3 in
  checkb "set 0 and set 3 differ at rank 1" false (Ef.duplicator_wins ~rounds:1 a b);
  checkb "out-of-domain reply refuted" true
    (Strategy.verify ~rounds:1 a b bogus <> None);
  checkb "refuted under symmetry pruning" true
    (Strategy.verify ~symmetry:true ~rounds:1 a b bogus <> None);
  checkb "refuted on a sampled line" true
    (Strategy.verify_sampled ~rng:(Random.State.make [| 7 |]) ~lines:4 ~rounds:1 a b
       bogus
    <> None);
  (* An out-of-range start element is refused by name, not solved. *)
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  checkb "solve refuses an out-of-domain start" true
    (raises (fun () -> Ef.solve ~start:[ (7, 99) ] ~rounds:1 (Gen.set 3) (Gen.set 5)));
  checkb "certify refuses an out-of-domain start" true
    (raises (fun () -> Ef.certify ~start:[ (0, 5) ] ~rounds:1 (Gen.set 3) (Gen.set 5)))

(* ---------- Pebble games ---------- *)

let test_pebble_games () =
  (* With enough pebbles, the k-pebble game and EF game agree. *)
  let a = Gen.cycle 3 and b = Gen.cycle 4 in
  for n = 1 to 3 do
    checkb
      (Printf.sprintf "pebbles=rounds matches EF (n=%d)" n)
      (Ef.duplicator_wins ~rounds:n a b)
      (Pebble.duplicator_wins ~pebbles:n ~rounds:n a b)
  done;
  (* Large sets: 2 pebbles cannot count beyond 2 — duplicator survives
     many rounds on sets of different sizes >= 2. *)
  checkb "FO^2 cannot distinguish big sets" true
    (Pebble.duplicator_wins ~pebbles:2 ~rounds:5 (Gen.set 3) (Gen.set 4));
  (* But can distinguish sizes 1 vs 2 in one round. *)
  checkb "FO^2 distinguishes 1 vs 2" false
    (Pebble.duplicator_wins ~pebbles:2 ~rounds:2 (Gen.set 1) (Gen.set 2))

let test_pebble_monotone () =
  (* More pebbles only help the spoiler. *)
  let a = Gen.linear_order 4 and b = Gen.linear_order 5 in
  for k = 1 to 3 do
    let w_k = Pebble.duplicator_wins ~pebbles:k ~rounds:3 a b in
    let w_k1 = Pebble.duplicator_wins ~pebbles:(k + 1) ~rounds:3 a b in
    checkb (Printf.sprintf "monotone in pebbles k=%d" k) true ((not w_k1) || w_k)
  done

(* ---------- Memoization ablation ---------- *)

let test_memo_ablation () =
  let a = Gen.linear_order 5 and b = Gen.linear_order 6 in
  let with_memo, stats_memo =
    Ef.solve ~config:{ Ef.default_config with Ef.memo = true } ~rounds:2 a b
  in
  let without, stats_plain =
    Ef.solve ~config:{ Ef.default_config with Ef.memo = false } ~rounds:2 a b
  in
  checkb "same verdict" with_memo without;
  checkb "memo explores no more positions" true
    (stats_memo.Ef.positions <= stats_plain.Ef.positions);
  checkb "no-memo path reports no hits" true (stats_plain.Ef.memo_hits = 0)

(* ---------- QCheck properties ---------- *)

let gen_small_graph =
  let open QCheck2.Gen in
  let* n = int_range 1 4 in
  let* edges =
    list_size (int_range 0 n)
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  return (graph_of edges ~size:n)

let prop_ef_reflexive =
  QCheck2.Test.make ~count:50 ~name:"A ≡n A always" gen_small_graph (fun g ->
      Ef.duplicator_wins ~rounds:2 g g)

let prop_ef_symmetric =
  QCheck2.Test.make ~count:50 ~name:"≡n is symmetric"
    QCheck2.Gen.(pair gen_small_graph gen_small_graph)
    (fun (a, b) ->
      Ef.duplicator_wins ~rounds:2 a b = Ef.duplicator_wins ~rounds:2 b a)

let prop_ef_monotone_rounds =
  QCheck2.Test.make ~count:50 ~name:"≡(n+1) implies ≡n"
    QCheck2.Gen.(pair gen_small_graph gen_small_graph)
    (fun (a, b) ->
      (not (Ef.duplicator_wins ~rounds:3 a b)) || Ef.duplicator_wins ~rounds:2 a b)

let prop_iso_implies_equiv =
  QCheck2.Test.make ~count:50 ~name:"isomorphic implies ≡n" gen_small_graph
    (fun g ->
      let n = Structure.size g in
      let perm = Array.init n (fun i -> (i + 1) mod n) in
      Ef.duplicator_wins ~rounds:3 g (Structure.relabel g perm))

let prop_distinguish_sound =
  QCheck2.Test.make ~count:30 ~name:"extracted sentence is sound"
    QCheck2.Gen.(pair gen_small_graph gen_small_graph)
    (fun (a, b) ->
      match certificate ~rounds:2 a b with
      | None -> Ef.duplicator_wins ~rounds:2 a b
      | Some phi ->
          Formula.quantifier_rank phi <= 2
          && Formula.free_vars phi = []
          && Eval.sat a phi
          && not (Eval.sat b phi))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_ef_reflexive;
      prop_ef_symmetric;
      prop_ef_monotone_rounds;
      prop_iso_implies_equiv;
      prop_distinguish_sound;
    ]

let () =
  Alcotest.run "fmtk_games"
    [
      ( "ef",
        [
          Alcotest.test_case "sets characterization" `Quick test_ef_sets;
          Alcotest.test_case "EVEN witnesses" `Quick test_ef_even_sets;
          Alcotest.test_case "≡n respects sentences" `Quick test_ef_respects_sentences;
          Alcotest.test_case "Theorem 3.1 orders" `Slow test_linear_orders_theorem;
        ] );
      ( "distinguish",
        [
          Alcotest.test_case "sets" `Quick test_distinguish_sets;
          Alcotest.test_case "graphs" `Quick test_distinguish_graphs;
          Alcotest.test_case "agrees with solver" `Quick test_distinguish_agrees_with_solver;
          Alcotest.test_case "start positions" `Quick test_games_from_position;
          Alcotest.test_case "open formulas" `Quick test_distinguish_open_formula;
        ] );
      ( "strategy",
        [
          Alcotest.test_case "sets" `Quick test_strategy_sets;
          Alcotest.test_case "linear orders" `Slow test_strategy_linear_orders;
          Alcotest.test_case "successor chains" `Quick test_strategy_successor_chains;
          Alcotest.test_case "directed cycles" `Slow test_strategy_directed_cycles;
          Alcotest.test_case "union composition" `Quick test_strategy_union_composition;
          Alcotest.test_case "out-of-domain replies" `Quick test_strategy_out_of_domain;
        ] );
      ( "pebble",
        [
          Alcotest.test_case "basic" `Quick test_pebble_games;
          Alcotest.test_case "monotone" `Quick test_pebble_monotone;
        ] );
      ("ablation", [ Alcotest.test_case "memoization" `Quick test_memo_ablation ]);
      ("properties", qcheck_cases);
    ]
