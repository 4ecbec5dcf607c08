(* Tests for Fmtk_structure: structures, isomorphism, graph algorithms,
   generators, serialization. *)

module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Iso = Fmtk_structure.Iso
module Graph = Fmtk_structure.Graph
module Gen = Fmtk_structure.Gen
module Io = Fmtk_structure.Structure_io
module Gaifman = Fmtk_locality.Gaifman
module Wl = Fmtk_structure.Wl
module Budget = Fmtk_runtime.Budget

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let rng () = Random.State.make [| 42 |]

let graph_of edges ~size =
  Structure.make Signature.graph ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* ---------- Tuple ---------- *)

let test_tuple_all () =
  checki "n^k tuples" 8 (List.length (List.of_seq (Tuple.all 2 3)));
  checki "arity 0" 1 (List.length (List.of_seq (Tuple.all 5 0)));
  checki "empty domain" 0 (List.length (List.of_seq (Tuple.all 0 2)));
  let l = List.of_seq (Tuple.all 3 2) in
  checki "distinct" 9 (List.length (List.sort_uniq Tuple.compare l))

let test_tuple_compare () =
  checkb "lex order" true (Tuple.compare [| 0; 1 |] [| 0; 2 |] < 0);
  checkb "length first" true (Tuple.compare [| 5 |] [| 0; 0 |] < 0);
  checkb "equal" true (Tuple.equal [| 1; 2 |] [| 1; 2 |])

(* ---------- Structure ---------- *)

let test_structure_make_validation () =
  let sg = Signature.make ~consts:[ "a" ] [ ("E", 2) ] in
  let s = Structure.make sg ~size:3 ~consts:[ ("a", 1) ] [ ("E", [ [| 0; 1 |] ]) ] in
  checki "size" 3 (Structure.size s);
  checki "const" 1 (Structure.const s "a");
  checkb "mem" true (Structure.mem s "E" [| 0; 1 |]);
  checkb "not mem" false (Structure.mem s "E" [| 1; 0 |]);
  checki "tuple_count" 1 (Structure.tuple_count s);
  (* Validation errors. *)
  let expect_invalid f = try f (); Alcotest.fail "expected Invalid_argument" with Invalid_argument _ -> () in
  expect_invalid (fun () -> ignore (Structure.make sg ~size:3 ~consts:[ ("a", 0) ] [ ("E", [ [| 0 |] ]) ]));
  expect_invalid (fun () -> ignore (Structure.make sg ~size:3 ~consts:[ ("a", 0) ] [ ("E", [ [| 0; 3 |] ]) ]));
  expect_invalid (fun () -> ignore (Structure.make sg ~size:3 ~consts:[ ("a", 0) ] [ ("R", []) ]));
  expect_invalid (fun () -> ignore (Structure.make sg ~size:3 [ ("E", []) ]))

let test_induced () =
  let s = graph_of [ (0, 1); (1, 2); (2, 3); (3, 0) ] ~size:4 in
  let sub, embed = Structure.induced s [ 0; 1; 2 ] in
  checki "induced size" 3 (Structure.size sub);
  checkb "embed identity" true (embed = [| 0; 1; 2 |]);
  checkb "kept edge" true (Structure.mem sub "E" [| 0; 1 |]);
  checkb "dropped edge" false (Structure.mem sub "E" [| 2; 0 |]);
  (* Renumbering. *)
  let sub2, embed2 = Structure.induced s [ 3; 1; 2 ] in
  checkb "embed sorted" true (embed2 = [| 1; 2; 3 |]);
  checkb "edge 2->3 renumbered to 1->2" true (Structure.mem sub2 "E" [| 1; 2 |])

let test_disjoint_union () =
  let a = Gen.cycle 3 and b = Gen.cycle 4 in
  let u = Structure.disjoint_union a b in
  checki "size" 7 (Structure.size u);
  checki "edges" 7 (Tuple.Set.cardinal (Structure.rel u "E"));
  checkb "a edge" true (Structure.mem u "E" [| 0; 1 |]);
  checkb "b edge shifted" true (Structure.mem u "E" [| 3; 4 |]);
  checki "components" 2 (Graph.component_count u)

let test_relabel () =
  let s = graph_of [ (0, 1) ] ~size:3 in
  let r = Structure.relabel s [| 2; 0; 1 |] in
  checkb "edge relabeled" true (Structure.mem r "E" [| 2; 0 |]);
  checkb "old edge gone" false (Structure.mem r "E" [| 0; 1 |]);
  checkb "relabel preserves iso" true (Iso.isomorphic s r)

let test_expand_consts () =
  let s = graph_of [ (0, 1) ] ~size:2 in
  let s' = Structure.expand_consts s [ ("p", 0); ("q", 1) ] in
  checki "const p" 0 (Structure.const s' "p");
  checkb "signature extended" true
    (Signature.mem_const (Structure.signature s') "q")

(* ---------- Iso ---------- *)

let test_partial_iso () =
  let a = Gen.linear_order 4 and b = Gen.linear_order 5 in
  checkb "empty map" true (Iso.partial_iso a b []);
  checkb "order preserved" true (Iso.partial_iso a b [ (0, 1); (2, 3) ]);
  checkb "order violated" false (Iso.partial_iso a b [ (0, 3); (2, 1) ]);
  checkb "non-injective" false (Iso.partial_iso a b [ (0, 1); (1, 1) ]);
  checkb "non-functional" false (Iso.partial_iso a b [ (0, 1); (0, 2) ]);
  checkb "duplicate pair ok" true (Iso.partial_iso a b [ (0, 0); (0, 0) ]);
  (* Index probes answer false out of the domain, so an out-of-range
     element would pass as an isolated point. *)
  checkb "out-of-domain pair" false (Iso.partial_iso (Gen.set 3) (Gen.set 5) [ (7, 99) ]);
  checkb "out-of-domain image" false (Iso.partial_iso (Gen.set 3) (Gen.set 5) [ (0, 5) ]);
  checkb "negative element" false (Iso.partial_iso (Gen.set 3) (Gen.set 5) [ (-1, 0) ])

let test_extension_ok () =
  let a = Gen.linear_order 4 and b = Gen.linear_order 5 in
  let pairs = [ (1, 1) ] in
  checkb "extend above" true (Iso.extension_ok a b pairs (3, 4));
  checkb "extend below fails order" false (Iso.extension_ok a b pairs (0, 2));
  checkb "repeat ok" true (Iso.extension_ok a b pairs (1, 1));
  checkb "repeat mismatch" false (Iso.extension_ok a b pairs (1, 2));
  checkb "taken image" false (Iso.extension_ok a b pairs (2, 1));
  let c4 = Gen.cycle 4 in
  checkb "out-of-domain image" false (Iso.extension_ok c4 c4 [] (0, 99));
  checkb "out-of-domain pebble" false (Iso.extension_ok c4 c4 [] (4, 0));
  checkb "negative pebble" false (Iso.extension_ok c4 c4 [] (-1, 0));
  checkb "empty domain" false (Iso.extension_ok (Gen.set 0) (Gen.set 3) [] (0, 0));
  (* The check is resolved once and reused across positions. *)
  let check = Iso.extension_ok a b in
  checkb "applied once, extend above" true (check pairs (3, 4));
  checkb "applied once, below" false (check pairs (0, 2));
  (* Constants act as pre-played pairs. *)
  let pin s e = Structure.expand_consts s [ ("c", e) ] in
  let check = Iso.extension_ok (pin a 1) (pin b 1) in
  checkb "pebble on a constant" true (check [] (1, 1));
  checkb "pebble off its constant" false (check [] (1, 2));
  checkb "constant's image taken" false (check [] (2, 1));
  checkb "order against a constant" false (check [] (0, 2));
  (* A clash is raised when the check is resolved, before any pair. *)
  let clash = Structure.make (Signature.make [ ("E", 3) ]) ~size:2 [] in
  checkb "clash at resolution" true
    (match ignore (Iso.extension_ok c4 clash : _ -> _ -> bool) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_iso_cycles () =
  checkb "C5 ~ C5 relabeled" true
    (Iso.isomorphic (Gen.cycle 5) (Structure.relabel (Gen.cycle 5) [| 3; 1; 4; 0; 2 |]));
  checkb "C5 != C6" false (Iso.isomorphic (Gen.cycle 5) (Gen.cycle 6));
  checkb "2C3 != C6" false
    (Iso.isomorphic (Gen.union_of [ Gen.cycle 3; Gen.cycle 3 ]) (Gen.cycle 6));
  checkb "C3+C4 ~ C4+C3" true
    (Iso.isomorphic
       (Gen.union_of [ Gen.cycle 3; Gen.cycle 4 ])
       (Gen.union_of [ Gen.cycle 4; Gen.cycle 3 ]))

let test_iso_constants_pinned () =
  (* Path 0->1->2 with a constant at an end vs at the middle: not iso. *)
  let p = Gen.path 3 in
  let end_pin = Structure.expand_consts p [ ("c", 0) ] in
  let mid_pin = Structure.expand_consts p [ ("c", 1) ] in
  checkb "same pin iso" true (Iso.isomorphic end_pin end_pin);
  checkb "different pin not iso" false (Iso.isomorphic end_pin mid_pin)

let test_iso_tricky_degree () =
  (* Two non-isomorphic graphs with the same degree sequence:
     C6 vs 2xC3 (as undirected-style symmetric graphs). *)
  let sym g = Graph.symmetric_closure g in
  checkb "same degrees, not iso" false
    (Iso.isomorphic (sym (Gen.cycle 6)) (sym (Gen.union_of [ Gen.cycle 3; Gen.cycle 3 ])))

let test_find_iso_mapping () =
  let a = Gen.path 4 in
  let b = Structure.relabel a [| 2; 0; 3; 1 |] in
  match Iso.find_iso a b with
  | None -> Alcotest.fail "expected isomorphism"
  | Some f ->
      (* Check it is a genuine isomorphism. *)
      checkb "maps edges" true
        (Tuple.Set.for_all
           (fun t -> Structure.mem b "E" [| f.(t.(0)); f.(t.(1)) |])
           (Structure.rel a "E"))

(* [Iso.canonical] against [Iso.find_iso]'s independent backtracking. *)
let canonical_agrees a b =
  (Iso.canonical a = Iso.canonical b) = Iso.isomorphic a b

let test_canonical_cfi () =
  (* 1-WL cannot tell a CFI pair apart; the canonical form must. *)
  List.iter
    (fun m ->
      let a, b = Gen.cfi_pair m in
      checkb (Printf.sprintf "m=%d: 1-WL blind" m) true (Wl.census_equal1 a b);
      checkb (Printf.sprintf "m=%d: canonical forms differ" m) true
        (Iso.canonical a <> Iso.canonical b);
      checkb (Printf.sprintf "m=%d: agrees with find_iso" m) true (canonical_agrees a b))
    [ 3; 4 ]

let test_canonical_regular () =
  (* Random 3-regular graphs of one size: 1-WL gives every vertex one
     colour, so only the search tells the isomorphism types apart. Eight
     vertices have few types, so both answers occur. *)
  let rng = Random.State.make [| 7 |] in
  let iso = ref 0 and non = ref 0 in
  List.iter
    (fun n ->
      for _ = 1 to 15 do
        let a = Gen.random_regular ~rng n 3 and b = Gen.random_regular ~rng n 3 in
        if Iso.isomorphic a b then incr iso else incr non;
        checkb (Printf.sprintf "%d vertices: agrees with find_iso" n) true
          (canonical_agrees a b)
      done)
    [ 8; 10; 12 ];
  checkb "isomorphic pairs met" true (!iso > 0);
  checkb "non-isomorphic pairs met" true (!non > 0)

let test_canonical_pruning () =
  (* Without automorphism pruning each has up to 11! leaves; with it a
     few dozen search nodes. One unit of fuel per node. *)
  let star k =
    graph_of ~size:(k + 1) (List.concat_map (fun i -> [ (0, i); (i, 0) ]) (List.init k succ))
  in
  List.iter
    (fun (name, t) ->
      let budget = Budget.create ~fuel:10_000 ~poll_interval:1 () in
      match Iso.canonical ~budget t with
      | _ -> ()
      | exception Budget.Exhausted _ -> Alcotest.failf "%s: no pruning" name)
    [ ("complete 12", Gen.complete 12); ("set 12", Gen.set 12); ("star 12", star 12) ]

(* ---------- Graph algorithms ---------- *)

let test_degrees () =
  let s = Gen.successor 5 in
  checkb "degree_set {0,1}" true (Graph.degree_set s = [ 0; 1 ]);
  let tc = Graph.transitive_closure_structure s in
  checkb "TC degrees 0..4" true (Graph.degree_set tc = [ 0; 1; 2; 3; 4 ]);
  checki "max degree" 4 (Graph.max_degree tc)

let test_connectivity () =
  checkb "cycle connected" true (Graph.connected (Gen.cycle 5));
  checkb "two cycles disconnected" false
    (Graph.connected (Gen.union_of [ Gen.cycle 3; Gen.cycle 3 ]));
  checki "components" 3 (Graph.component_count (Gen.union_of [ Gen.cycle 2; Gen.cycle 2; Gen.cycle 2 ]));
  checkb "empty graph connected" true (Graph.connected (Gen.set 0 |> fun s -> Structure.make Signature.graph ~size:(Structure.size s) []));
  checkb "singleton connected" true (Graph.connected (graph_of [] ~size:1))

let test_acyclicity () =
  checkb "path acyclic" true (Graph.acyclic (Gen.path 5));
  checkb "cycle not acyclic" false (Graph.acyclic (Gen.cycle 5));
  checkb "self loop not acyclic" false (Graph.acyclic (graph_of [ (0, 0) ] ~size:1));
  checkb "dag acyclic" true (Graph.acyclic (graph_of [ (0, 1); (0, 2); (1, 2) ] ~size:3));
  (* Undirected: antiparallel pair is one edge, not a cycle. *)
  checkb "antiparallel pair is a forest" true
    (Graph.undirected_acyclic (graph_of [ (0, 1); (1, 0) ] ~size:2));
  checkb "triangle not forest" false
    (Graph.undirected_acyclic (Graph.symmetric_closure (Gen.cycle 3)))

let test_trees () =
  checkb "path is tree" true (Graph.is_tree (Gen.path 4));
  checkb "cycle not tree" false (Graph.is_tree (Gen.cycle 4));
  checkb "binary tree is tree" true (Graph.is_tree (Gen.binary_tree 3));
  checkb "forest not tree" false (Graph.is_tree (Gen.union_of [ Gen.path 2; Gen.path 2 ]))

let test_transitive_closure () =
  let s = Gen.successor 4 in
  let tc = Graph.transitive_closure s in
  checki "TC of chain has n(n-1)/2 edges" 6 (Tuple.Set.cardinal tc);
  checkb "0 reaches 3" true (Tuple.Set.mem [| 0; 3 |] tc);
  checkb "3 doesn't reach 0" false (Tuple.Set.mem [| 3; 0 |] tc);
  (* TC of cycle is complete including loops. *)
  checki "TC of C3" 9 (Tuple.Set.cardinal (Graph.transitive_closure (Gen.cycle 3)))

let test_complete () =
  checkb "K4 complete" true (Graph.is_complete (Gen.complete 4));
  checkb "C4 not complete" false (Graph.is_complete (Gen.cycle 4));
  checkb "K1 complete" true (Graph.is_complete (Gen.complete 1))

let test_bfs () =
  let p = Gen.path 5 in
  let d = Array.init 5 (Gaifman.distance p 0) in
  checkb "distances" true (d = [| 0; 1; 2; 3; 4 |]);
  (* Distance from a set: the least radius whose ball holds the node. *)
  let from srcs v =
    let rec go r = if List.mem v (Gaifman.ball p r srcs) then r else go (r + 1) in
    go 0
  in
  let d2 = Array.init 5 (from [ 0; 4 ]) in
  checkb "multi-source" true (d2 = [| 0; 1; 2; 1; 0 |])

(* ---------- Generators ---------- *)

let test_generators () =
  checki "L5 tuples" 10 (Tuple.Set.cardinal (Structure.rel (Gen.linear_order 5) "lt"));
  checki "successor edges" 4 (Tuple.Set.cardinal (Structure.rel (Gen.successor 5) "E"));
  checki "cycle edges" 5 (Tuple.Set.cardinal (Structure.rel (Gen.cycle 5) "E"));
  checki "K5 edges" 20 (Tuple.Set.cardinal (Structure.rel (Gen.complete 5) "E"));
  checki "binary tree size" 15 (Structure.size (Gen.binary_tree 3));
  checki "binary tree edges" 14 (Tuple.Set.cardinal (Structure.rel (Gen.binary_tree 3) "E"));
  checki "grid size" 12 (Structure.size (Gen.grid 3 4));
  checki "grid edges" 17 (Tuple.Set.cardinal (Structure.rel (Gen.grid 3 4) "E"));
  checkb "grid connected" true (Graph.connected (Gen.grid 3 4))

let test_linear_order_is_total () =
  let s = Gen.linear_order 6 in
  let lt = Structure.rel s "lt" in
  (* Total: exactly one of i<j, j<i for i != j; irreflexive; transitive. *)
  for i = 0 to 5 do
    checkb "irreflexive" false (Tuple.Set.mem [| i; i |] lt);
    for j = 0 to 5 do
      if i <> j then
        checkb "total" true
          (Tuple.Set.mem [| i; j |] lt <> Tuple.Set.mem [| j; i |] lt)
    done
  done

let test_random_generators () =
  let rng = rng () in
  let g = Gen.random_graph ~rng 20 0.3 in
  checki "size" 20 (Structure.size g);
  let ug = Gen.random_undirected_graph ~rng 20 0.5 in
  checkb "symmetric" true
    (Tuple.Set.for_all
       (fun t -> Structure.mem ug "E" [| t.(1); t.(0) |])
       (Structure.rel ug "E"));
  checkb "no loops" true
    (Tuple.Set.for_all (fun t -> t.(0) <> t.(1)) (Structure.rel ug "E"));
  let bd = Gen.bounded_degree_graph ~rng 30 3 in
  checkb "degree bounded" true (Graph.max_degree bd <= 3);
  let sg = Signature.make [ ("E", 2); ("P", 1) ] in
  let rs = Gen.random_structure ~rng sg 6 in
  checki "random structure size" 6 (Structure.size rs)

(* ---------- IO ---------- *)

let test_io_roundtrip () =
  let sg = Signature.make ~consts:[ "a" ] [ ("E", 2); ("P", 1) ] in
  let s =
    Structure.make sg ~size:4 ~consts:[ ("a", 2) ]
      [ ("E", [ [| 0; 1 |]; [| 1; 2 |] ]); ("P", [ [| 3 |] ]) ]
  in
  let text = Io.to_string s in
  match Io.parse text with
  | Ok s' -> checkb "roundtrip" true (Structure.equal s s')
  | Error e -> Alcotest.fail e

let test_io_parse () =
  let text = "# a comment\ndomain 3\nrel E/2 = (0,1) (1,2)\nconst a = 0\n" in
  match Io.parse text with
  | Ok s ->
      checki "size" 3 (Structure.size s);
      checkb "edge" true (Structure.mem s "E" [| 0; 1 |]);
      checki "const" 0 (Structure.const s "a")
  | Error e -> Alcotest.fail e

let test_io_errors () =
  List.iter
    (fun text ->
      match Io.parse text with
      | Ok _ -> Alcotest.failf "expected failure for %S" text
      | Error _ -> ())
    [
      "rel E/2 = (0,1)";          (* missing domain *)
      "domain 2\nrel E/2 = (0,3)"; (* out of range *)
      "domain 2\nrel E/2 = (0)";  (* arity mismatch *)
      "domain -1";
      "domain 2\nbogus line";
    ]

(* ---------- Decoder totality under byte mutation ---------- *)

let test_io_mutants () =
  let mixed =
    Structure.make
      (Signature.make ~consts:[ "a" ] [ ("Z", 0); ("P", 1); ("E", 2); ("R", 3) ])
      ~size:4 ~consts:[ ("a", 3) ]
      [
        ("Z", [ [||] ]);
        ("P", [ [| 0 |]; [| 3 |] ]);
        ("E", [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |] ]);
        ("R", [ [| 0; 1; 2 |] ]);
      ]
  in
  let docs =
    [
      ("directive", Io.to_string mixed);
      ("graph directed", Io.to_graph_string (Gen.cycle 5));
      ("graph undirected", "# five nodes\ngraph 5\n0 1\n1 2\n\n3 4\n");
    ]
  in
  List.iteri
    (fun i (name, doc) ->
      checkb (name ^ " parses") true (Result.is_ok (Io.parse doc));
      List.iter
        (fun m ->
          match Io.parse m with
          | Ok _ | Error _ -> ()
          | exception e ->
              Alcotest.failf "%s mutant %S raised %s" name m (Printexc.to_string e))
        (Mutants.of_doc ~seed:(100 + i) ~count:2000 doc))
    docs

(* ---------- QCheck properties ---------- *)

let gen_graph : Structure.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 8 in
  let* edges =
    list_size (int_range 0 (n * 2))
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  return (graph_of edges ~size:n)

(* Random structures over a random subset of nullary, unary, binary and
   ternary relations with 0–2 constants, on 1–[max_n] elements and few
   tuples. A pair shares its signature and size, on at most 4 elements,
   so that it is often isomorphic. *)
let gen_shape max_n =
  QCheck2.Gen.(
    let* n = int_range 1 max_n in
    let* keep = list_repeat 4 bool in
    let* consts = int_range 0 2 in
    return
      ( n,
        List.filteri (fun i _ -> List.nth keep i) [ ("Z", 0); ("P", 1); ("E", 2); ("R", 3) ],
        List.init consts (Printf.sprintf "c%d") ))

let gen_on (n, rels, consts) : Structure.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let elt = int_range 0 (n - 1) in
  let* tuples =
    flatten_l
      (List.map
         (fun (name, k) ->
           map (fun ts -> (name, ts)) (list_size (int_range 0 n) (array_repeat k elt)))
         rels)
  in
  let* pinned = list_repeat (List.length consts) elt in
  return
    (Structure.make (Signature.make ~consts rels) ~size:n
       ~consts:(List.combine consts pinned) tuples)

let gen_mixed_pair =
  QCheck2.Gen.(
    let* shape = gen_shape 4 in
    pair (gen_on shape) (gen_on shape))

let print_mixed = Format.asprintf "%a" Structure.pp

(* A structure and a random permutation of its domain. *)
let gen_relabelled =
  QCheck2.Gen.(
    let* a = gen_shape 8 >>= gen_on in
    let* seed = int_range 0 1_000_000 in
    let perm = Array.init (Structure.size a) Fun.id in
    let rng = Random.State.make [| seed |] in
    for i = Array.length perm - 1 downto 1 do
      let j = Random.State.int rng (i + 1) in
      let tmp = perm.(i) in
      perm.(i) <- perm.(j);
      perm.(j) <- tmp
    done;
    return (a, perm))

let prop_relabel_iso =
  QCheck2.Test.make ~count:300 ~name:"relabel yields isomorphic structure"
    ~print:(fun (a, _) -> print_mixed a)
    gen_relabelled
    (fun (a, perm) ->
      let b = Structure.relabel a perm in
      Iso.isomorphic a b && Iso.canonical a = Iso.canonical b)

let prop_canonical_iso =
  QCheck2.Test.make ~count:500 ~name:"canonical forms equal iff isomorphic"
    ~print:(fun (a, b) -> print_mixed a ^ "\n" ^ print_mixed b)
    gen_mixed_pair
    (fun (a, b) -> canonical_agrees a b)

let prop_tc_idempotent =
  QCheck2.Test.make ~count:100 ~name:"transitive closure is idempotent" gen_graph
    (fun g ->
      let tc = Graph.transitive_closure_structure g in
      Tuple.Set.equal (Structure.rel tc "E") (Graph.transitive_closure tc))

let prop_component_count =
  QCheck2.Test.make ~count:100 ~name:"connected iff one component" gen_graph
    (fun g ->
      (* Reference components: propagate the least label along edges to
         a fixpoint, then count the labels left. *)
      let label = Array.init (Structure.size g) Fun.id in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (u, v) ->
            let m = min label.(u) label.(v) in
            if label.(u) <> m || label.(v) <> m then begin
              label.(u) <- m;
              label.(v) <- m;
              changed := true
            end)
          (Graph.edges g)
      done;
      let components = List.length (List.sort_uniq compare (Array.to_list label)) in
      (* Reference acyclicity: no element reaches itself. *)
      let tc = Graph.transitive_closure g in
      let acyclic =
        List.for_all (fun v -> not (Tuple.Set.mem [| v; v |] tc)) (Structure.domain g)
      in
      Graph.connected g = (Graph.component_count g <= 1 || Structure.size g <= 1)
      && Graph.component_count g = components
      && Graph.acyclic g = acyclic
      && Graph.acyclic (Structure.to_csr g) = acyclic)

let prop_io_roundtrip =
  QCheck2.Test.make ~count:100 ~name:"structure io roundtrip" gen_graph (fun g ->
      match Io.parse (Io.to_string g) with
      | Ok g' -> Structure.equal g g'
      | Error _ -> false)

(* [Iso.extension_ok] against its definition, [partial_iso] of the
   extended list. Structure pairs mix arities 0-3, 0-2 constants, a
   relation one side leaves undeclared, and set- or CSR-backed binary
   relations; [b] is often a relabelled copy of [a] with at most one
   tuple flipped, so long partial isomorphisms exist. [pairs] grows by
   random extensions kept only while [partial_iso] holds, and the probed
   pairs include repeats, taken images, pebbles on constants and
   out-of-domain elements. *)
let ext_case rng =
  let int n = Random.State.int rng n and coin () = Random.State.bool rng in
  let na = 1 + int 5 in
  let copy = int 3 > 0 in
  let nb = if copy || coin () then na else 1 + int 5 in
  let pi = Array.init na Fun.id in
  for i = na - 1 downto 1 do
    let j = int (i + 1) in
    let t = pi.(i) in
    pi.(i) <- pi.(j);
    pi.(j) <- t
  done;
  let consts = List.filteri (fun i _ -> i < int 3) [ "c"; "d" ] in
  let rels = [ ("Z", 0); ("P", 1); ("E", 2); ("F", 2); ("T", 3) ] in
  (* A relation declared on one side only, or none. *)
  let omit = Option.map (fun (r, _) -> (r, coin ())) (List.nth_opt rels (int 8)) in
  let declared on_a =
    List.filter (fun (r, _) -> omit <> Some (r, on_a)) rels
  in
  let tuples n k = List.init (int ((2 * n) + 2)) (fun _ -> Array.init k (fun _ -> int n)) in
  let rels_a = List.map (fun (r, k) -> (r, tuples na k)) rels in
  let rels_b =
    if copy then
      let flip = if coin () then Some (fst (List.nth rels (int 5))) else None in
      List.map
        (fun (r, k) ->
          let moved = List.map (Array.map (fun e -> pi.(e))) (List.assoc r rels_a) in
          if flip = Some r then
            let t = Array.init k (fun _ -> int nb) in
            if List.mem t moved then (r, List.filter (( <> ) t) moved)
            else (r, t :: moved)
          else (r, moved))
        rels
    else
      (* Nullary relations agree more often than not. *)
      List.map
        (fun (r, k) ->
          if k = 0 && int 4 > 0 then (r, List.assoc r rels_a) else (r, tuples nb k))
        rels
  in
  let consts_a = List.map (fun c -> (c, int na)) consts in
  let consts_b =
    List.map (fun (c, e) -> (c, if copy && int 4 > 0 then pi.(e) else int nb)) consts_a
  in
  (* Half the time the side declaring the one-sided relation leaves it
     empty, as the other side reads it. *)
  let sparse = coin () in
  let make on_a n rel_tuples cvals =
    let sg = Signature.make ~consts (declared on_a) in
    let s =
      Structure.make sg ~size:n ~consts:cvals
        (List.filter_map
           (fun (r, ts) ->
             if not (Signature.mem_rel sg r) then None
             else if sparse && Option.map fst omit = Some r then Some (r, [])
             else Some (r, ts))
           rel_tuples)
    in
    if coin () then Structure.to_csr s else s
  in
  let a = make true na rels_a consts_a and b = make false nb rels_b consts_b in
  let image x = if copy && int 4 > 0 then pi.(x) else int nb in
  let pairs = ref [] in
  for _ = 1 to int 8 do
    let x = int na in
    let xy = (x, image x) in
    if Iso.partial_iso a b (xy :: !pairs) then pairs := xy :: !pairs
  done;
  let pairs = !pairs in
  let probes =
    List.init 4 (fun _ ->
        let x = int na in
        (x, image x))
    @ pairs
    @ List.map (fun (_, y) -> (int na, y)) pairs
    @ List.concat_map
        (fun ((_, ca), (_, cb)) -> [ (ca, cb); (ca, int nb); (int na, cb) ])
        (List.combine consts_a consts_b)
    @ [ (na, int nb); (int na, nb); (-1, 0); (0, -1); (na + 5, nb + 5) ]
  in
  (a, b, pairs, probes)

let prop_extension_matches_definition =
  (* About half the generated pairs fail [partial_iso a b []] (the
     constants or a nullary relation disagree) and are discarded. *)
  QCheck2.Test.make ~count:2000 ~max_gen:8000
    ~name:"extension_ok a b pairs xy = partial_iso a b (xy :: pairs)"
    ~print:string_of_int
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let a, b, pairs, probes = ext_case (Random.State.make [| seed |]) in
      QCheck2.assume (Iso.partial_iso a b pairs);
      let check = Iso.extension_ok a b in
      List.for_all
        (fun xy ->
          let want = Iso.partial_iso a b (xy :: pairs) in
          if Iso.extension_ok a b pairs xy <> want then
            QCheck2.Test.fail_reportf "(%d,%d): fully applied check differs"
              (fst xy) (snd xy)
          else if check pairs xy <> want then
            QCheck2.Test.fail_reportf "(%d,%d): resolved check differs"
              (fst xy) (snd xy)
          else true)
        probes)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_extension_matches_definition;
      prop_relabel_iso;
      prop_canonical_iso;
      prop_tc_idempotent;
      prop_component_count;
      prop_io_roundtrip;
    ]

let () =
  Alcotest.run "fmtk_structure"
    [
      ( "tuple",
        [
          Alcotest.test_case "enumeration" `Quick test_tuple_all;
          Alcotest.test_case "comparison" `Quick test_tuple_compare;
        ] );
      ( "structure",
        [
          Alcotest.test_case "make and validation" `Quick test_structure_make_validation;
          Alcotest.test_case "induced substructure" `Quick test_induced;
          Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
          Alcotest.test_case "relabel" `Quick test_relabel;
          Alcotest.test_case "expand consts" `Quick test_expand_consts;
        ] );
      ( "iso",
        [
          Alcotest.test_case "partial iso" `Quick test_partial_iso;
          Alcotest.test_case "extension" `Quick test_extension_ok;
          Alcotest.test_case "cycles" `Quick test_iso_cycles;
          Alcotest.test_case "constants pinned" `Quick test_iso_constants_pinned;
          Alcotest.test_case "same degrees not iso" `Quick test_iso_tricky_degree;
          Alcotest.test_case "mapping is isomorphism" `Quick test_find_iso_mapping;
          Alcotest.test_case "canonical form: CFI pairs" `Quick test_canonical_cfi;
          Alcotest.test_case "canonical form: 3-regular pairs" `Quick test_canonical_regular;
          Alcotest.test_case "canonical form: pruning" `Quick test_canonical_pruning;
        ] );
      ( "graph",
        [
          Alcotest.test_case "degrees" `Quick test_degrees;
          Alcotest.test_case "connectivity" `Quick test_connectivity;
          Alcotest.test_case "acyclicity" `Quick test_acyclicity;
          Alcotest.test_case "trees" `Quick test_trees;
          Alcotest.test_case "transitive closure" `Quick test_transitive_closure;
          Alcotest.test_case "completeness" `Quick test_complete;
          Alcotest.test_case "bfs" `Quick test_bfs;
        ] );
      ( "gen",
        [
          Alcotest.test_case "families" `Quick test_generators;
          Alcotest.test_case "linear order total" `Quick test_linear_order_is_total;
          Alcotest.test_case "random" `Quick test_random_generators;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "parse" `Quick test_io_parse;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "byte mutants stay total" `Quick test_io_mutants;
        ] );
      ("properties", qcheck_cases);
    ]
