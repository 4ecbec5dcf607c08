(* The paper's running example, §3.2–3.3: EVEN is not FO-expressible —
   on bare sets, then on linear orders, then carried to graph connectivity
   and acyclicity by the FO reduction tricks.

   Run with: dune exec examples/inexpressibility_even.exe *)

module Gen = Fmtk_structure.Gen
module Graph = Fmtk_structure.Graph
module Formula = Fmtk_logic.Formula
module Ef = Fmtk_games.Ef
module Strategy = Fmtk_games.Strategy
module Queries = Fmtk.Queries
module Reductions = Fmtk.Reductions
module Method = Fmtk.Method

let header title = Format.printf "@.== %s ==@." title

let () =
  header "EVEN on bare sets (slides 44-45)";
  (* For each rank n, the witnesses are a 2n-set and a (2n+1)-set. *)
  List.iter
    (fun n ->
      let a = Gen.set (2 * n) and b = Gen.set ((2 * n) + 1) in
      match Method.game_rank ~rounds:n ~query:Queries.even a b with
      | Ok () ->
          Format.printf
            "rank %d: |A|=%d ⊨ EVEN, |B|=%d ⊭ EVEN, A ≡%d B  ⇒  no qr-%d \
             sentence defines EVEN@."
            n (2 * n) ((2 * n) + 1) n n
      | Error e -> Format.printf "rank %d: FAILED (%s)@." n e)
    [ 1; 2; 3; 4 ];

  (* The constructive counterpart: below the witness size the spoiler wins
     and we can print the separating sentence. *)
  (match Ef.certify ~rounds:3 (Gen.set 3) (Gen.set 2) with
  | _, Some phi, _ ->
      Format.printf "sets of size 3 vs 2 are separated at rank 3 by: %a@."
        Formula.pp phi
  | _, None, _ -> assert false);

  header "EVEN on linear orders (Theorem 3.1)";
  (* Exact solver up to rank 3; the distance-doubling strategy certifies
     rank 4 on L16 vs L17, far beyond the solver's reach. *)
  List.iter
    (fun n ->
      let m = 1 lsl n in
      let a = Gen.linear_order m and b = Gen.linear_order (m + 1) in
      let ok =
        if n <= 3 then Ef.duplicator_wins ~rounds:n a b
        else
          Strategy.verify ~rounds:n a b (Strategy.linear_orders m (m + 1))
          = None
      in
      Format.printf "L%d ≡%d L%d  (%s): %b@." m n (m + 1)
        (if n <= 3 then "exact solver" else "verified strategy")
        ok)
    [ 1; 2; 3; 4 ];

  header "Trick 1: EVEN(<) ⇒ CONN (the slide-48 figure)";
  List.iter
    (fun n ->
      let g = Reductions.conn_construction (Gen.linear_order n) in
      Format.printf
        "order of size %2d → graph with %d component(s)  (%s)@." n
        (Graph.component_count g)
        (if Graph.connected g then "connected" else "disconnected"))
    [ 5; 6; 7; 8; 9; 10 ];
  Format.printf
    "The construction is FO (it is executed above through the RA compiler),@.";
  Format.printf
    "so if CONN were FO then EVEN(<) would be too — contradiction.@.";

  header "Trick 2: EVEN(<) ⇒ ACYCL";
  List.iter
    (fun n ->
      let g = Reductions.acycl_construction (Gen.linear_order n) in
      Format.printf "order of size %2d → %s@." n
        (if Graph.acyclic g then "acyclic" else "cyclic"))
    [ 5; 6; 7; 8 ];

  header "Trick 3: CONN ⇒ TC (slide 50)";
  let test_graph = Gen.union_of [ Gen.cycle 3; Gen.path 4 ] in
  Format.printf
    "two-component graph: connectivity via the TC oracle = %b (direct: %b)@."
    (Reductions.connectivity_via_tc ~tc:Graph.transitive_closure test_graph)
    (Graph.connected test_graph);
  let ring = Gen.cycle 7 in
  Format.printf "7-cycle: connectivity via the TC oracle = %b (direct: %b)@."
    (Reductions.connectivity_via_tc ~tc:Graph.transitive_closure ring)
    (Graph.connected ring);
  Format.printf
    "@.Conclusion (Corollary 3.2): connectivity, acyclicity and transitive@.";
  Format.printf "closure are not FO-expressible.@."
