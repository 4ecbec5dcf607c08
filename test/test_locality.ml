(* Tests for Fmtk_locality: Gaifman graphs/neighborhoods, Hanf and Gaifman
   locality, BNDP, the bounded-degree evaluator, and local sentences —
   §3.4–3.5 of the paper. *)

module Signature = Fmtk_logic.Signature
module Parser = Fmtk_logic.Parser
module Formula = Fmtk_logic.Formula
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Csr = Fmtk_structure.Csr
module Iso = Fmtk_structure.Iso
module Graph = Fmtk_structure.Graph
module Gen = Fmtk_structure.Gen
module Eval = Fmtk_eval.Eval
module Gaifman = Fmtk_locality.Gaifman
module Neighborhood = Fmtk_locality.Neighborhood
module Hanf = Fmtk_locality.Hanf
module Gaifman_local = Fmtk_locality.Gaifman_local
module Bndp = Fmtk_locality.Bndp
module Bounded_degree = Fmtk_locality.Bounded_degree
module Local_sentence = Fmtk_locality.Local_sentence
module Budget = Fmtk_runtime.Budget

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

let graph_of edges ~size =
  Structure.make Signature.graph ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* ---------- Gaifman graph ---------- *)

let test_gaifman_adjacency () =
  (* A ternary tuple makes all its elements pairwise adjacent. *)
  let sg = Signature.make [ ("R", 3) ] in
  let s = Structure.make sg ~size:4 [ ("R", [ [| 0; 1; 2 |] ]) ] in
  let g = Gaifman.adjacency_csr s in
  checkb "0~1" true (Csr.mem g 0 1);
  checkb "0~2" true (Csr.mem g 0 2);
  checkb "1~2" true (Csr.mem g 1 2);
  checkb "3 isolated" true (Csr.degree g 3 = 0);
  (* Orientation is forgotten. *)
  let g = Gaifman.adjacency_csr (Gen.successor 3) in
  checkb "undirected" true (Csr.mem g 1 0 && Csr.mem g 0 1)

let test_distance_and_ball () =
  let chain = Gen.path 7 in
  checki "distance along chain" 4 (Gaifman.distance chain 1 5);
  checkb "ball radius 2 around 3" true (Gaifman.ball chain 2 [ 3 ] = [ 1; 2; 3; 4; 5 ]);
  checkb "ball of pair" true
    (Gaifman.ball chain 1 [ 0; 6 ] = [ 0; 1; 5; 6 ]);
  let two = Gen.union_of [ Gen.path 3; Gen.path 3 ] in
  checkb "disconnected distance" true (Gaifman.distance two 0 3 = max_int);
  checki "diameter of chain" 6 (Gaifman.diameter chain);
  checki "gaifman degree of chain" 2 (Gaifman.degree chain)

let test_neighborhood_pinning () =
  let chain = Gen.path 9 in
  (* Interior points have isomorphic 2-neighborhoods; endpoint doesn't. *)
  let n_mid = Gaifman.neighborhood chain 2 [ 4 ] in
  let n_mid2 = Gaifman.neighborhood chain 2 [ 3 ] in
  let n_end = Gaifman.neighborhood chain 2 [ 0 ] in
  checkb "interior ≅ interior" true (Iso.isomorphic n_mid n_mid2);
  checkb "endpoint ≇ interior" false (Iso.isomorphic n_mid n_end);
  (* Pinning matters: same ball, different pinned point. *)
  let p = Gaifman.neighborhood chain 1 [ 1 ] in
  let q = Gaifman.neighborhood chain 1 [ 0 ] in
  checkb "different pin" false (Iso.isomorphic p q)

(* [f] raises [Invalid_argument] with a message naming [value]. *)
let refuses name value f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument m ->
      let named =
        let k = String.length value in
        let rec at i =
          i + k <= String.length m && (String.sub m i k = value || at (i + 1))
        in
        at 0
      in
      checkb (Printf.sprintf "%s: %S names %s" name m value) true named

let test_validation () =
  let c = Gen.cycle 5 in
  refuses "ball, radius 0" "99" (fun () -> Gaifman.ball c 0 [ 99 ]);
  refuses "ball, radius 1" "99" (fun () -> Gaifman.ball c 1 [ 99 ]);
  refuses "distance target" "99" (fun () -> Gaifman.distance c 0 99);
  refuses "distance source" "-3" (fun () -> Gaifman.distance c (-3) 0);
  refuses "neighborhood" "99" (fun () -> Gaifman.neighborhood c 1 [ 99 ]);
  refuses "pointed tuple" "99" (fun () ->
      Hanf.equiv_pointed ~radius:1 (c, [ 99 ]) (c, [ 0 ]));
  refuses "ball, negative radius" "-1" (fun () -> Gaifman.ball c (-1) [ 0 ]);
  refuses "census, negative radius" "-1" (fun () ->
      Neighborhood.census (Neighborhood.create_registry ()) c ~radius:(-1));
  refuses "hanf, negative radius" "-1" (fun () ->
      Hanf.equiv ~radius:(-1) (Gen.cycle 6) (Gen.successor 6));
  refuses "threshold 0" "0" (fun () ->
      Hanf.threshold_equiv ~threshold:0 ~radius:1 (Gen.cycle 6) (Gen.successor 6));
  refuses "negative threshold" "-2" (fun () ->
      Hanf.threshold_equiv ~threshold:(-2) ~radius:1 (Gen.cycle 6)
        (Gen.successor 6));
  (* Threshold 1 still tells a cycle from a chain. *)
  checkb "threshold 1" false
    (Hanf.threshold_equiv ~threshold:1 ~radius:1 (Gen.cycle 6) (Gen.successor 6))

(* ---------- Neighborhood census ---------- *)

let test_census_chain () =
  let reg = Neighborhood.create_registry () in
  let census = Neighborhood.census reg (Gen.path 10) ~radius:1 in
  (* Radius-1 types on a chain: left end, interior, right end. *)
  checki "three types" 3 (List.length census);
  let counts = List.sort compare (List.map snd census) in
  checkb "counts 1,1,8" true (counts = [ 1; 1; 8 ])

let test_census_cycle_uniform () =
  let reg = Neighborhood.create_registry () in
  let census = Neighborhood.census reg (Gen.cycle 8) ~radius:2 in
  checki "cycles are homogeneous" 1 (List.length census);
  checkb "all 8 nodes" true (List.map snd census = [ 8 ])

let test_census_shared_registry () =
  (* Two cycles of length m vs one of length 2m: same single type. *)
  let reg = Neighborhood.create_registry () in
  let c1 = Neighborhood.census reg (Gen.union_of [ Gen.cycle 7; Gen.cycle 7 ]) ~radius:2 in
  let c2 = Neighborhood.census reg (Gen.cycle 14) ~radius:2 in
  checkb "identical censuses" true (c1 = c2)

let test_census_counters () =
  (* Every worker count counts the same work: a second census on one
     registry resolves every ball in the serialization cache, and a
     ball with a constant always costs one canonical form. *)
  let t = Gen.torus 30 30 in
  let n = Structure.size t in
  let tc = Structure.expand_consts t [ ("c", 0) ] in
  List.iter
    (fun workers ->
      let reg = Neighborhood.create_registry () in
      ignore (Neighborhood.census ~workers reg t ~radius:1);
      let hits = Neighborhood.serial_hits reg in
      ignore (Neighborhood.census ~workers reg t ~radius:1);
      checki
        (Printf.sprintf "workers %d: second census hits" workers)
        n
        (Neighborhood.serial_hits reg - hits);
      let reg = Neighborhood.create_registry () in
      ignore (Neighborhood.census ~workers reg tc ~radius:1);
      checkb
        (Printf.sprintf "workers %d: a canonical form per element" workers)
        true
        (Neighborhood.iso_tests reg >= n))
    [ 1; 2; 4 ]

let test_census_budget () =
  (* A census cut by its budget leaves the registry usable. *)
  let t = Structure.expand_consts (Gen.torus 20 20) [ ("c", 0) ] in
  let n = Structure.size t in
  List.iter
    (fun workers ->
      let reg = Neighborhood.create_registry () in
      let tiny = Budget.create ~fuel:3 ~poll_interval:1 () in
      (match Neighborhood.census ~workers ~budget:tiny reg t ~radius:1 with
      | _ -> Alcotest.failf "workers %d: census ignored a tiny budget" workers
      | exception Budget.Exhausted _ -> ());
      let census = Neighborhood.census ~workers reg t ~radius:1 in
      let sizes = List.sort compare (List.map snd census) in
      checkb
        (Printf.sprintf "workers %d: sizes 1, 4, n - 5 afterwards" workers)
        true
        (sizes = [ 1; 4; n - 5 ]))
    [ 1; 2 ]

(* ---------- Hanf locality (Theorem 3.8, slide 60) ---------- *)

let test_hanf_two_cycles () =
  (* The canonical example: 2 cycles of length m ⇆r one cycle of 2m for
     m > 2r+1; CONN distinguishes them. *)
  let r = 2 in
  let m = 7 in
  let g1 = Gen.union_of [ Gen.cycle m; Gen.cycle m ] in
  let g2 = Gen.cycle (2 * m) in
  checkb "⇆2 holds" true (Hanf.equiv ~radius:r g1 g2);
  checkb "CONN differs" true (Graph.connected g2 && not (Graph.connected g1));
  checkb "violation found" true
    (Hanf.hanf_local_violation ~radius:r Graph.connected [ (g1, g2) ] <> None)

let test_hanf_radius_sensitivity () =
  (* With m <= 2r+1 the neighborhoods see around the cycle: ⇆r fails. *)
  let r = 2 in
  let m = 4 in
  let g1 = Gen.union_of [ Gen.cycle m; Gen.cycle m ] in
  let g2 = Gen.cycle (2 * m) in
  checkb "⇆2 fails on short cycles" false (Hanf.equiv ~radius:r g1 g2)

let test_hanf_tree_example () =
  (* The paper's tree example: chain of 2m vs chain of m ⊎ cycle of m are
     ⇆r-equivalent for m > 2r+1 (a cycle node's r-ball is a path pinned in
     the middle, same as a chain interior), yet only the first is a tree —
     so tree-ness is not Hanf-local. *)
  let m = 8 in
  let g1 = Gen.path (2 * m) in
  let g2 = Gen.union_of [ Gen.path m; Gen.cycle m ] in
  checkb "sizes equal" true (Structure.size g1 = Structure.size g2);
  List.iter
    (fun r ->
      checkb (Printf.sprintf "⇆%d holds (m > 2r+1)" r) true
        (Hanf.equiv ~radius:r g1 g2))
    [ 1; 2 ];
  checkb "tree-ness differs" true (Graph.is_tree g1 && not (Graph.is_tree g2));
  checkb "violation certified" true
    (Hanf.hanf_local_violation ~radius:1 Graph.is_tree [ (g1, g2) ] <> None)

let test_threshold_hanf () =
  (* Two big cliques vs one: every node's 1-ball is a clique; counts differ
     but both exceed a small threshold. *)
  let g1 = Gen.complete 6 and g2 = Gen.complete 6 in
  checkb "same structure trivially" true (Hanf.threshold_equiv ~threshold:2 ~radius:1 g1 g2);
  (* Chains of different length: interior counts 8 vs 18 both >= m=3;
     endpoint counts equal (2). *)
  let c1 = Gen.path 10 and c2 = Gen.path 20 in
  checkb "⇆*3,1 holds across sizes" true
    (Hanf.threshold_equiv ~threshold:3 ~radius:1 c1 c2);
  checkb "⇆ (exact) fails across sizes" false (Hanf.equiv ~radius:1 c1 c2);
  checkb "⇆*15,1 fails (interior counts 8 vs 18)" false
    (Hanf.threshold_equiv ~threshold:15 ~radius:1 c1 c2)

let test_threshold_transfer () =
  (* Theorem 3.10 consequence: chains long enough to be ⇆*m,r-equivalent
     agree on qr-2 sentences. *)
  let phi = Parser.parse_exn "forall x. exists y. E(x,y)" in
  let q = Formula.quantifier_rank phi in
  let r = Hanf.fo_radius ~rank:q in
  let m = Hanf.fo_threshold ~rank:q ~degree:2 in
  let c1 = Gen.path 40 and c2 = Gen.path 50 in
  if Hanf.threshold_equiv ~threshold:m ~radius:r c1 c2 then
    checkb "agreement on qr-2 sentence" (Eval.sat c1 phi) (Eval.sat c2 phi)
  else
    (* The conservative threshold may simply not hold at these sizes; the
       theorem is then vacuous — record that explicitly. *)
    checkb "threshold not reached (vacuous)" true true

(* ---------- m-ary Hanf locality (Hella–Libkin, the paper's [21]) ------ *)

let test_pointed_equivalence () =
  (* On one long chain, (a, b) and (a', b') with the same gap pattern far
     from the ends are pointed-equivalent. *)
  let chain = Gen.path 14 in
  checkb "same shape tuples" true
    (Hanf.equiv_pointed ~radius:1 (chain, [ 4; 6 ]) (chain, [ 5; 7 ]));
  checkb "gap 2 vs gap 3 differ" false
    (Hanf.equiv_pointed ~radius:1 (chain, [ 4; 6 ]) (chain, [ 5; 8 ]));
  (* The TC argument's pair: (a, b) vs (b, a) are pointed-equivalent only
     when the pins are more than 2(2r+1) apart — otherwise a midpoint c
     bridges both pins and its merged neighborhood reveals the tuple's
     orientation. On a 14-chain with gap 6 (= 2(2r+1)) that midpoint
     exists and distinguishes: *)
  checkb "gap 2(2r+1): midpoint c reveals orientation" false
    (Hanf.equiv_pointed ~radius:1 (chain, [ 4; 10 ]) (chain, [ 10; 4 ]));
  (* With gap 9 > 2(2r+1) on a 20-chain, no c sees both pins: *)
  let long = Gen.path 20 in
  checkb "(a,b) ⇆1 (b,a) with pins far apart" true
    (Hanf.equiv_pointed ~radius:1 (long, [ 5; 14 ]) (long, [ 14; 5 ]));
  checkb "different sizes rejected" false
    (Hanf.equiv_pointed ~radius:1 (Gen.path 5, [ 0 ]) (Gen.path 6, [ 0 ]))

let test_mary_hanf_tc () =
  (* TC violates m-ary Hanf locality: on a single long chain, (a,b) vs
     (b,a)-shaped tuples with the pins far apart share pointed censuses
     but TC distinguishes. *)
  let chain = Gen.path 20 in
  match
    Hanf.mary_violation ~arity:2 ~radius:1 Graph.transitive_closure
      (chain, chain)
  with
  | None -> Alcotest.fail "expected an m-ary Hanf violation for TC"
  | Some (a, b) ->
      checkb "pointed-equivalent" true
        (Hanf.equiv_pointed ~radius:1 (chain, a) (chain, b));
      let tc = Graph.transitive_closure chain in
      checkb "TC distinguishes" true
        (Tuple.Set.mem (Array.of_list a) tc
        <> Tuple.Set.mem (Array.of_list b) tc)

let test_mary_hanf_fo_passes () =
  (* The FO control query passes m-ary Hanf on the same witness. *)
  let chain = Gen.path 10 in
  let path2 s =
    Eval.definable_relation s (Parser.parse_exn "exists z. E(x,z) & E(z,y)")
      ~vars:[ "x"; "y" ]
  in
  checkb "path2 has no m-ary Hanf violation" true
    (Hanf.mary_violation ~arity:2 ~radius:3 path2 (chain, chain) = None)

(* ---------- Gaifman locality (Theorem 3.6, slide 58) ---------- *)

let tc_query s = Graph.transitive_closure s

let test_gaifman_tc_violation () =
  (* Long chain: (a,b) vs (b,a) with isomorphic 1-neighborhoods; TC
     contains (a,b) but not (b,a). *)
  let chain = Gen.path 12 in
  match Gaifman_local.violation ~arity:2 ~radius:1 tc_query chain with
  | None -> Alcotest.fail "expected a Gaifman violation for TC"
  | Some (a, b) ->
      let nb tup = Gaifman.neighborhood chain 1 tup in
      checkb "neighborhoods isomorphic" true (Iso.isomorphic (nb a) (nb b));
      let tc = tc_query chain in
      checkb "TC distinguishes" true
        (Tuple.Set.mem (Array.of_list a) tc
         && not (Tuple.Set.mem (Array.of_list b) tc))

let test_gaifman_fo_queries_pass () =
  (* FO queries of qr 1 are Gaifman-local at their radius on the test
     family. path2 = exists z. E(x,z) & E(z,y) has qr 1, radius (7-1)/2=3. *)
  let path2 s =
    Eval.definable_relation s (Parser.parse_exn "exists z. E(x,z) & E(z,y)")
      ~vars:[ "x"; "y" ]
  in
  let family = [ Gen.path 10; Gen.cycle 9; Gen.binary_tree 3 ] in
  checkb "path2 is Gaifman-local at radius 3" true
    (Gaifman_local.holds_on ~arity:2 ~radius:(Gaifman_local.fo_radius ~rank:1)
       path2 family)

let test_gaifman_radius_monotone () =
  (* Locality at radius r implies locality at radius r' >= r (finer
     neighborhoods distinguish more tuples). *)
  let q s =
    Eval.definable_relation s (Parser.parse_exn "E(x,y) & E(y,x)")
      ~vars:[ "x"; "y" ]
  in
  let fam = [ Gen.cycle 8; Gen.path 8 ] in
  List.iter
    (fun r ->
      checkb
        (Printf.sprintf "symmetric-pair local at radius %d" r)
        true
        (Gaifman_local.holds_on ~arity:2 ~radius:r q fam))
    [ 1; 2; 3 ]

(* ---------- BNDP (Theorem 3.4, slide 55) ---------- *)

let test_bndp_tc_explodes () =
  (* TC of a successor chain realizes ~n distinct degrees. *)
  List.iter
    (fun n ->
      let c = Bndp.output_degree_count tc_query (Gen.successor n) in
      checkb (Printf.sprintf "TC degrees grow (n=%d)" n) true (c >= n - 1))
    [ 4; 8; 12 ];
  checkb "family violates BNDP proxy" false
    (Bndp.bounded tc_query (List.map Gen.successor [ 4; 8; 12; 16 ]))

let test_bndp_sg_explodes () =
  (* Same-generation on the full binary tree realizes degrees 1,2,4,..,2^d. *)
  let sg_query s = Fmtk_datalog.Programs.sg_of s in
  let out d = Bndp.output_degree_count sg_query (Gen.binary_tree d) in
  checkb "deeper tree, more degrees" true (out 3 > out 2 && out 2 > out 1)

let test_bndp_fo_bounded () =
  let path2 s =
    Eval.definable_relation s (Parser.parse_exn "exists z. E(x,z) & E(z,y)")
      ~vars:[ "x"; "y" ]
  in
  let family = List.map Gen.successor [ 4; 8; 16; 32 ] in
  checkb "FO query keeps degrees bounded" true (Bndp.bounded path2 family);
  List.iter
    (fun s ->
      checkb "path2 output degrees small" true
        (Bndp.output_degree_count path2 s <= 3))
    family

(* ---------- Bounded-degree evaluator (Theorems 3.10/3.11) ---------- *)

let test_bounded_degree_agrees () =
  let phi = Parser.parse_exn "forall x. exists y. E(x,y)" in
  let ev = Bounded_degree.make phi ~degree_bound:4 in
  let family =
    List.concat_map (fun n -> [ Gen.path n; Gen.cycle n ]) [ 5; 8; 11 ]
  in
  List.iter
    (fun s ->
      checkb "cached = naive" (Eval.sat s phi) (Bounded_degree.eval ev s))
    family

let test_bounded_degree_cache_hits () =
  let phi = Parser.parse_exn "exists x. E(x,x)" in
  (* Override radius/threshold for cache-granularity: qr 1 defaults are
     already tiny. *)
  let ev = Bounded_degree.make phi ~degree_bound:4 in
  (* Long cycles share their truncated census: the second evaluation must
     hit the cache. *)
  ignore (Bounded_degree.eval ev (Gen.cycle 30));
  ignore (Bounded_degree.eval ev (Gen.cycle 40));
  let hits, misses = Bounded_degree.cache_stats ev in
  checki "one miss" 1 misses;
  checki "one hit" 1 hits

let test_bounded_degree_guard () =
  let phi = Parser.parse_exn "exists x. E(x,x)" in
  let ev = Bounded_degree.make phi ~degree_bound:2 in
  try
    ignore (Bounded_degree.eval ev (Gen.complete 5));
    Alcotest.fail "expected degree-bound violation"
  with Invalid_argument _ -> ()

let test_bounded_degree_soundness_sweep () =
  (* Random bounded-degree graphs: cached evaluator must agree with naive
     on every input, including cache hits. *)
  let rng = Random.State.make [| 7 |] in
  let phi = Parser.parse_exn "exists x y. E(x,y) & E(y,x)" in
  let ev = Bounded_degree.make phi ~degree_bound:3 in
  for _ = 1 to 20 do
    let g = Gen.bounded_degree_graph ~rng 14 3 in
    checkb "sound on random input" (Eval.sat g phi) (Bounded_degree.eval ev g)
  done

(* ---------- Local sentences (Theorem 3.12) ---------- *)

let test_holds_locally () =
  let chain = Gen.path 9 in
  (* "x has an out-neighbour" holds locally at interior points. *)
  let phi = Parser.parse_exn "exists y. E(x,y)" in
  checkb "interior" true (Local_sentence.holds_locally chain ~radius:1 ~formula:phi 4);
  checkb "right endpoint" false
    (Local_sentence.holds_locally chain ~radius:1 ~formula:phi 8);
  (* Local evaluation is genuinely restricted to the ball: a loop at node 0
     is invisible from the 1-ball around node 4, though visible globally. *)
  let with_loop =
    Structure.with_rel chain "E" 2
      (Tuple.Set.add [| 0; 0 |] (Structure.rel chain "E"))
  in
  let loop_exists = Parser.parse_exn "exists y. E(y,y)" in
  checkb "distant loop invisible locally" false
    (Local_sentence.holds_locally with_loop ~radius:1 ~formula:loop_exists 4);
  checkb "but true in the full structure" true (Eval.sat with_loop loop_exists)

let test_basic_local_sentence () =
  let has_succ = Parser.parse_exn "exists y. E(x,y)" in
  (* Two scattered vertices with out-edges at distance > 2 exist on a long
     chain but not a short one. *)
  let b = { Local_sentence.count = 2; radius = 1; formula = has_succ } in
  checkb "long chain" true (Local_sentence.eval_basic (Gen.path 8) b);
  checkb "short chain" false (Local_sentence.eval_basic (Gen.path 3) b);
  (* Combination with negation. *)
  let c =
    Local_sentence.Neg (Local_sentence.Basic { b with count = 3 })
  in
  checkb "no 3 scattered on path 6" true
    (Local_sentence.eval_combination (Gen.path 6) c)

let test_basic_local_matches_fo () =
  (* The basic local sentence 'there exist >= 2 vertices with loops at
     distance > 2' against a hand-rolled FO equivalent on small graphs. *)
  let loop = Parser.parse_exn "E(x,x)" in
  let b = { Local_sentence.count = 2; radius = 1; formula = loop } in
  let check_graph edges size expected =
    let g = graph_of edges ~size in
    checkb "basic local sentence" expected (Local_sentence.eval_basic g b)
  in
  (* Two loops far apart on a chain of 6: 0 and 5. *)
  check_graph [ (0, 0); (5, 5); (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ] 6 true;
  (* Two loops adjacent: distance 1, not scattered. *)
  check_graph [ (0, 0); (1, 1); (0, 1) ] 3 false;
  (* Isolated loops in different components: infinitely far. *)
  check_graph [ (0, 0); (1, 1) ] 2 true

(* ---------- Theorem 3.9: hierarchy ---------- *)

let test_hierarchy_on_zoo () =
  (* Every query in the zoo that is Hanf-local on the sample family is also
     Gaifman-local there, and every Gaifman-local one satisfies the BNDP —
     checked contrapositively via the non-examples: TC fails Gaifman and
     fails BNDP; CONN fails Hanf. *)
  let chain = Gen.path 12 in
  let tc_gaifman_fails =
    Gaifman_local.violation ~arity:2 ~radius:1 tc_query chain <> None
  in
  let tc_bndp_fails =
    not (Bndp.bounded tc_query (List.map Gen.successor [ 4; 8; 16 ]))
  in
  checkb "TC fails Gaifman and BNDP together" true
    (tc_gaifman_fails && tc_bndp_fails);
  (* path2: passes all three levels. *)
  let path2 s =
    Eval.definable_relation s (Parser.parse_exn "exists z. E(x,z) & E(z,y)")
      ~vars:[ "x"; "y" ]
  in
  checkb "path2 Gaifman-local" true
    (Gaifman_local.holds_on ~arity:2 ~radius:3 path2 [ chain ]);
  checkb "path2 BNDP" true (Bndp.bounded path2 (List.map Gen.successor [ 4; 8; 16 ]))

(* ---------- Oracle properties: balls, neighborhoods, census ids ---------- *)

(* Random structures over a random subset of nullary, unary, binary and
   ternary relations, with 0–2 constants — signatures both with and
   without a serializable ball, so the census runs with and without its
   cache. *)
let gen_mixed : Structure.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 7 in
  let elt = int_range 0 (n - 1) in
  let* keep = list_repeat 4 bool in
  let rels =
    List.filteri (fun i _ -> List.nth keep i) [ ("Z", 0); ("P", 1); ("E", 2); ("R", 3) ]
  in
  let* tuples =
    flatten_l
      (List.map
         (fun (name, k) ->
           map (fun ts -> (name, ts)) (list_size (int_range 0 (2 * n)) (array_repeat k elt)))
         rels)
  in
  let* pinned = list_size (int_range 0 2) elt in
  let consts = List.mapi (fun i e -> (Printf.sprintf "c%d" i, e)) pinned in
  return
    (Structure.make
       (Signature.make ~consts:(List.map fst consts) rels)
       ~size:n ~consts tuples)

let print_mixed = Format.asprintf "%a" Structure.pp

(* A structure, a radius in 0..2 and a tuple of 1–2 (maybe repeated)
   elements. *)
let gen_pointed =
  let open QCheck2.Gen in
  let* t = gen_mixed in
  let* r = int_range 0 2 in
  let* tuple = list_size (int_range 1 2) (int_range 0 (Structure.size t - 1)) in
  return (t, r, tuple)

let print_pointed (t, r, tuple) =
  Printf.sprintf "%s\nradius %d, tuple [%s]" (print_mixed t) r
    (String.concat "; " (List.map string_of_int tuple))

(* Reference ball: BFS over the pairs that co-occur in some tuple. *)
let ref_ball t r seeds =
  let n = Structure.size t in
  let adj = Array.make n [] in
  List.iter
    (fun (name, _) ->
      Structure.iter_rel t name (fun tup ->
          Array.iter
            (fun u -> Array.iter (fun v -> if u <> v then adj.(u) <- v :: adj.(u)) tup)
            tup))
    (Signature.rels (Structure.signature t));
  let dist = Array.make n (-1) in
  List.iter (fun s -> dist.(s) <- 0) seeds;
  for d = 1 to r do
    Array.iteri
      (fun u du ->
        if du = d - 1 then
          List.iter (fun v -> if dist.(v) < 0 then dist.(v) <- d) adj.(u))
      (Array.copy dist)
  done;
  List.filter (fun e -> dist.(e) >= 0) (Structure.domain t)

(* Reference neighborhood: [Structure.induced] on the reference ball,
   then the tuple pinned as "@p1", "@p2", … *)
let ref_neighborhood t r tuple =
  let sub, embed = Structure.induced t (ref_ball t r tuple) in
  let new_of e =
    let rec go i = if embed.(i) = e then i else go (i + 1) in
    go 0
  in
  Structure.expand_consts sub
    (List.mapi (fun i e -> (Printf.sprintf "@p%d" (i + 1), new_of e)) tuple)

let prop_ball_oracle =
  QCheck2.Test.make ~count:300 ~name:"ball = reference BFS" ~print:print_pointed
    gen_pointed (fun (t, r, tuple) -> Gaifman.ball t r tuple = ref_ball t r tuple)

let prop_neighborhood_oracle =
  QCheck2.Test.make ~count:300 ~name:"neighborhood ≅ induced + pins"
    ~print:print_pointed gen_pointed (fun (t, r, tuple) ->
      Iso.isomorphic (Gaifman.neighborhood t r tuple) (ref_neighborhood t r tuple))

(* Two tuples of one length in one structure: their neighborhoods are
   often isomorphic. *)
let prop_pointed_canonical =
  QCheck2.Test.make ~count:300
    ~name:"pointed neighborhoods: canonical forms equal iff isomorphic"
    ~print:(fun (pointed, b) ->
      print_pointed pointed ^ " vs [" ^ String.concat "; " (List.map string_of_int b) ^ "]")
    QCheck2.Gen.(
      let* (t, r, a) = gen_pointed in
      let* b = list_repeat (List.length a) (int_range 0 (Structure.size t - 1)) in
      return ((t, r, a), b))
    (fun ((t, r, a), b) ->
      let na = Gaifman.neighborhood t r a and nb = Gaifman.neighborhood t r b in
      (Iso.canonical na = Iso.canonical nb) = Iso.isomorphic na nb)

let prop_census_oracle =
  QCheck2.Test.make ~count:150 ~name:"element types = reference ids, workers 1/2/4"
    ~print:print_mixed gen_mixed (fun t ->
      List.for_all
        (fun radius ->
          let reg = Neighborhood.create_registry () in
          let expected =
            Array.of_list
              (List.map
                 (fun e -> Neighborhood.type_id reg (ref_neighborhood t radius [ e ]))
                 (Structure.domain t))
          in
          List.for_all
            (fun workers ->
              Neighborhood.element_types ~workers (Neighborhood.create_registry ()) t
                ~radius
              = expected)
            [ 1; 2; 4 ])
        [ 0; 1; 2 ])

let () =
  Alcotest.run "fmtk_locality"
    [
      ( "gaifman",
        [
          Alcotest.test_case "adjacency" `Quick test_gaifman_adjacency;
          Alcotest.test_case "distance and balls" `Quick test_distance_and_ball;
          Alcotest.test_case "neighborhood pinning" `Quick test_neighborhood_pinning;
          Alcotest.test_case "argument validation" `Quick test_validation;
        ] );
      ( "oracles",
        List.map QCheck_alcotest.to_alcotest
          [ prop_ball_oracle; prop_neighborhood_oracle; prop_census_oracle ] );
      ("canonical", [ QCheck_alcotest.to_alcotest prop_pointed_canonical ]);
      ( "census",
        [
          Alcotest.test_case "chain" `Quick test_census_chain;
          Alcotest.test_case "cycle uniform" `Quick test_census_cycle_uniform;
          Alcotest.test_case "shared registry" `Quick test_census_shared_registry;
          Alcotest.test_case "counters for every worker count" `Quick test_census_counters;
          Alcotest.test_case "budget leaves the registry usable" `Quick test_census_budget;
        ] );
      ( "hanf",
        [
          Alcotest.test_case "two cycles vs one" `Quick test_hanf_two_cycles;
          Alcotest.test_case "radius sensitivity" `Quick test_hanf_radius_sensitivity;
          Alcotest.test_case "tree example" `Quick test_hanf_tree_example;
          Alcotest.test_case "threshold variant" `Quick test_threshold_hanf;
          Alcotest.test_case "threshold transfer" `Slow test_threshold_transfer;
          Alcotest.test_case "pointed equivalence" `Quick test_pointed_equivalence;
          Alcotest.test_case "m-ary: TC violates" `Quick test_mary_hanf_tc;
          Alcotest.test_case "m-ary: FO passes" `Slow test_mary_hanf_fo_passes;
        ] );
      ( "gaifman-locality",
        [
          Alcotest.test_case "TC violation on chain" `Quick test_gaifman_tc_violation;
          Alcotest.test_case "FO queries pass" `Slow test_gaifman_fo_queries_pass;
          Alcotest.test_case "radius sweep" `Quick test_gaifman_radius_monotone;
        ] );
      ( "bndp",
        [
          Alcotest.test_case "TC explodes" `Quick test_bndp_tc_explodes;
          Alcotest.test_case "same-generation explodes" `Quick test_bndp_sg_explodes;
          Alcotest.test_case "FO stays bounded" `Quick test_bndp_fo_bounded;
        ] );
      ( "bounded-degree",
        [
          Alcotest.test_case "agrees with naive" `Quick test_bounded_degree_agrees;
          Alcotest.test_case "cache hits" `Quick test_bounded_degree_cache_hits;
          Alcotest.test_case "degree guard" `Quick test_bounded_degree_guard;
          Alcotest.test_case "random soundness sweep" `Quick test_bounded_degree_soundness_sweep;
        ] );
      ( "local-sentences",
        [
          Alcotest.test_case "relativized evaluation" `Quick test_holds_locally;
          Alcotest.test_case "basic local sentences" `Quick test_basic_local_sentence;
          Alcotest.test_case "scattered loops" `Quick test_basic_local_matches_fo;
        ] );
      ("hierarchy", [ Alcotest.test_case "Theorem 3.9 on the zoo" `Quick test_hierarchy_on_zoo ]);
    ]
