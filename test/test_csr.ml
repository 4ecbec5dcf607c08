(* Differential suite for the CSR storage backend: every observable —
   evaluation, colour refinement, neighborhood censuses, Hanf
   equivalence, bounded-degree verdicts — must be identical whether a
   binary relation is stored as a tuple set or as CSR rows, for every
   worker count, and under budget fault injection. *)

module Signature = Fmtk_logic.Signature
module Parser = Fmtk_logic.Parser
module Structure = Fmtk_structure.Structure
module Csr = Fmtk_structure.Csr
module Gen = Fmtk_structure.Gen
module Wl = Fmtk_structure.Wl
module Io = Fmtk_structure.Structure_io
module Eval = Fmtk_eval.Eval
module Neighborhood = Fmtk_locality.Neighborhood
module Hanf = Fmtk_locality.Hanf
module Bounded_degree = Fmtk_locality.Bounded_degree
module Budget = Fmtk_runtime.Budget
module Spec = Fmtk.Spec

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let f s = Result.get_ok (Parser.parse s)

(* ---------- Csr unit behaviour ---------- *)

let test_csr_normalized () =
  (* Rows come out sorted and deduplicated whatever the input order. *)
  let c = Csr.of_edges ~n:4 ([| 2; 0; 0; 2; 0 |], [| 1; 3; 2; 1; 3 |]) in
  checki "dedup" 3 (Csr.edge_count c);
  checkb "row sorted" true
    (let acc = ref [] in
     Csr.iter_row c 0 (fun w -> acc := w :: !acc);
     List.rev !acc = [ 2; 3 ]);
  checkb "mem yes" true (Csr.mem c 2 1);
  checkb "mem no" false (Csr.mem c 1 2);
  checkb "mem out of range" false (Csr.mem c 9 1);
  checkb "equal after shuffle" true
    (Csr.equal c (Csr.of_edges ~n:4 ([| 0; 0; 2 |], [| 3; 2; 1 |])))

let test_csr_append_relabel () =
  let a = Csr.of_edges ~n:2 ([| 0 |], [| 1 |]) in
  let b = Csr.of_edges ~n:3 ([| 2 |], [| 0 |]) in
  let u = Csr.append a b in
  checki "union nodes" 5 (Csr.nodes u);
  checkb "left kept" true (Csr.mem u 0 1);
  checkb "right shifted" true (Csr.mem u 4 2);
  let r = Csr.relabel a [| 1; 0 |] in
  checkb "relabel" true (Csr.mem r 1 0 && not (Csr.mem r 0 1))

let test_csr_degrees () =
  let c = Csr.of_edges ~n:3 ([| 0; 0; 1 |], [| 1; 2; 2 |]) in
  checki "degree" 2 (Csr.degree c 0);
  checki "max degree" 2 (Csr.max_degree c);
  checkb "in degrees" true (Csr.in_degrees c = [| 0; 1; 2 |])

let test_csr_transpose_and_sets () =
  (* On random edge lists: rows built from a tuple set, and transposed
     rows, equal what the sorting constructor builds. *)
  let rng = Random.State.make [| 16 |] in
  for _ = 1 to 200 do
    let n = Random.State.int rng 9 in
    let m = if n = 0 then 0 else Random.State.int rng (3 * n) in
    let src = Array.init m (fun _ -> Random.State.int rng n)
    and dst = Array.init m (fun _ -> Random.State.int rng n) in
    let c = Csr.of_edges ~n (src, dst) in
    let set =
      Fmtk_structure.Tuple.Set.of_list
        (Array.to_list (Array.mapi (fun i u -> [| u; dst.(i) |]) src))
    in
    checkb "of_tuple_set = of_edges" true (Csr.equal c (Csr.of_tuple_set ~n set));
    checkb "transpose = swapped edges" true
      (Csr.equal (Csr.transpose c) (Csr.of_edges ~n (dst, src)));
    checkb "transpose twice" true (Csr.equal c (Csr.transpose (Csr.transpose c)))
  done;
  match Csr.of_tuple_set ~n:2 (Fmtk_structure.Tuple.Set.singleton [| 0; 2 |]) with
  | _ -> Alcotest.fail "out-of-domain endpoint accepted"
  | exception Invalid_argument _ -> ()

(* ---------- Structure auto-selection ---------- *)

let test_backend_selection () =
  let small = Gen.cycle 10 in
  Alcotest.(check string) "small stays set" "set" (Structure.backend_summary small);
  let big = Gen.cycle Structure.csr_auto_threshold in
  Alcotest.(check string) "big auto-csr" "csr" (Structure.backend_summary big);
  let forced = Structure.to_csr small in
  Alcotest.(check string) "forced csr" "csr" (Structure.backend_summary forced);
  Alcotest.(check string) "back to sets" "set"
    (Structure.backend_summary (Structure.to_sets forced));
  checkb "of_graph is csr" true
    (Structure.rel_backend (Gen.torus 3 3) "E" = `Csr)

(* ---------- Copy-on-write edits ----------

   [Structure.edit] must build what [with_rel] builds from the edited
   tuple set — the same relation on the same storage backend — from a
   set-backed or a CSR-backed start, edit by edit or in one batch; its
   rows, and those of [Csr.edit], must be what [Csr.of_edges] builds
   from the edited edge list; and the start must be left as it was. *)

module Tuple = Fmtk_structure.Tuple

let apply_to_set set (tup, add) =
  if add then Tuple.Set.add tup set else Tuple.Set.remove tup set

let with_rel_edit s e =
  Structure.with_rel s "E" 2 (apply_to_set (Structure.rel s "E") e)

let rows_of s =
  match Structure.csr_of_rel s "E" with
  | Some c -> c
  | None -> Csr.of_tuple_set ~n:(Structure.size s) (Structure.rel s "E")

let check_edits ~what start edits =
  let n = Structure.size start in
  let before = Io.to_string start in
  let reference = List.fold_left with_rel_edit start edits in
  let model = List.fold_left apply_to_set (Structure.rel start "E") edits in
  let expected_rows =
    let l = Tuple.Set.elements model in
    Csr.of_edges ~n
      ( Array.of_list (List.map (fun t -> t.(0)) l),
        Array.of_list (List.map (fun t -> t.(1)) l) )
  in
  List.iter
    (fun (how, r) ->
      let msg m = Printf.sprintf "%s, %s: %s" what how m in
      checkb (msg "edit = with_rel") true (Structure.equal r reference);
      checkb (msg "same backend as with_rel") true
        (Structure.rel_backend r "E" = Structure.rel_backend reference "E");
      checkb (msg "rows = of_edges") true (Csr.equal (rows_of r) expected_rows))
    [
      ( "stepwise",
        List.fold_left (fun s e -> Structure.edit s "E" [ e ]) start edits );
      ("batch", Structure.edit start "E" edits);
    ];
  checkb (what ^ ": Csr.edit = of_edges") true
    (Csr.equal
       (Csr.edit (rows_of start)
          (List.map (fun (t, add) -> (t.(0), t.(1), add)) edits))
       expected_rows);
  checkb (what ^ ": start untouched") true (Io.to_string start = before)

let test_edit_differential () =
  let rng = Random.State.make [| 17 |] in
  for _ = 1 to 200 do
    let n = 1 + Random.State.int rng 12 in
    let pair () = [| Random.State.int rng n; Random.State.int rng n |] in
    let g =
      Structure.make Signature.graph ~size:n
        [ ("E", List.init (Random.State.int rng (2 * n)) (fun _ -> pair ())) ]
    in
    (* Small domains: repeated edges, no-op inserts and deletes, and
       edits undone later in the same batch all come up often. *)
    let edits =
      List.init (Random.State.int rng 12) (fun _ -> (pair (), Random.State.bool rng))
    in
    check_edits ~what:"set start" g edits;
    check_edits ~what:"csr start" (Structure.to_csr g) edits
  done

let test_edit_threshold () =
  let t = Structure.csr_auto_threshold and n = 80 in
  let pair i = [| i / n; i mod n |] in
  let below =
    Structure.make Signature.graph ~size:n [ ("E", List.init (t - 2) pair) ]
  in
  let fresh = List.init 3 (fun i -> pair (t - 2 + i)) in
  let up = List.map (fun tup -> (tup, true)) fresh
  and down = List.map (fun tup -> (tup, false)) fresh in
  checkb "starts set-backed" true (Structure.rel_backend below "E" = `Set);
  check_edits ~what:"crossing up" below up;
  let above = Structure.edit below "E" up in
  checkb "crossed up to csr" true (Structure.rel_backend above "E" = `Csr);
  check_edits ~what:"crossing down" above down;
  checkb "crossed down to sets" true
    (Structure.rel_backend (Structure.edit above "E" down) "E" = `Set);
  check_edits ~what:"up then down" below (up @ down);
  (* Forced backends on the wrong side of the threshold re-home on
     their first edit, as with_rel's rule says. *)
  check_edits ~what:"forced sets" (Structure.to_sets above) [ List.hd down ];
  check_edits ~what:"forced csr" (Structure.to_csr below) [ List.hd up ]

let test_edit_sharing_and_errors () =
  let sg = Signature.make [ ("E", 2); ("P", 1) ] in
  let s =
    Structure.make sg ~size:5 [ ("E", [ [| 0; 1 |] ]); ("P", [ [| 2 |] ]) ]
  in
  Structure.ensure_indexes s;
  let s' = Structure.edit s "E" [ ([| 1; 2 |], true) ] in
  checkb "untouched relation keeps its index" true
    (Structure.index s' "P" == Structure.index s "P");
  checkb "edited relation answers probes" true
    (Structure.probe s' "E" [| 1; 2 |] && not (Structure.probe s "E" [| 1; 2 |]));
  let refused f = match f () with _ -> false | exception (Not_found | Invalid_argument _) -> true in
  checkb "undeclared relation" true (refused (fun () -> Structure.edit s "R" []));
  checkb "wrong arity" true
    (refused (fun () -> Structure.edit s "E" [ ([| 0 |], true) ]));
  checkb "outside the domain" true
    (refused (fun () -> Structure.edit s "E" [ ([| 0; 5 |], true) ]));
  checkb "csr endpoint outside the domain" true
    (refused (fun () -> Csr.edit (rows_of s) [ (0, 5, true) ]))

(* ---------- Differential properties ----------

   Both backends of the same structure must agree observably. The
   qcheck generator draws small random digraphs; [both] returns the
   set-backed and CSR-backed views. *)

let gen_graph : Structure.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 14 in
  let* edges = list_size (int_range 0 30) (pair (int_range 0 (n - 1)) (int_range 0 (n - 1))) in
  return
    (Structure.make Signature.graph ~size:n
       [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ])

let both g = (Structure.to_sets g, Structure.to_csr g)

let sentences =
  [
    f "forall x. exists y. E(x,y) | E(y,x)";
    f "exists x. exists y. E(x,y) & E(y,x)";
    f "forall x. ~E(x,x)";
  ]

let prop_eval_agrees =
  QCheck2.Test.make ~count:100 ~name:"eval: csr = set" gen_graph (fun g ->
      let s, c = both g in
      List.for_all (fun phi -> Eval.sat s phi = Eval.sat c phi) sentences)

let prop_structure_equal =
  QCheck2.Test.make ~count:100 ~name:"equal/mem/rel_count: csr = set" gen_graph
    (fun g ->
      let s, c = both g in
      Structure.equal s c
      && Structure.rel_count s "E" = Structure.rel_count c "E"
      && List.for_all
           (fun u ->
             List.for_all
               (fun v -> Structure.mem s "E" [| u; v |] = Structure.mem c "E" [| u; v |])
               (Structure.domain s))
           (Structure.domain s))

let prop_wl_agrees =
  QCheck2.Test.make ~count:100 ~name:"wl refine: csr = set, workers 1/2/4"
    gen_graph (fun g ->
      let s, c = both g in
      let base = Wl.refine s in
      List.for_all
        (fun workers -> Wl.refine ~workers c = base && Wl.refine ~workers s = base)
        [ 1; 2; 4 ])

(* ---------- 1-WL against an independent oracle ---------- *)

(* Colour refinement from the definition, sharing no code with [Wl]:
   neighbours are Gaifman lists (distinct co-occurring elements, no
   self-loops); initial classes come from per-relation, per-position
   counts, nullary truth values and constant marks; refinement runs
   until the class count stops growing; classes are numbered by first
   occurrence in element order. The structures are refined jointly, in
   list order, so colours are comparable across them. *)
let oracle_wl structures =
  let number values =
    let seen = ref [] in
    List.map
      (fun v ->
        match List.assoc_opt v !seen with
        | Some c -> c
        | None ->
            let c = List.length !seen in
            seen := (v, c) :: !seen;
            c)
      values
  in
  let elems =
    List.concat
      (List.mapi
         (fun i t -> List.init (Structure.size t) (fun e -> (i, t, e)))
         structures)
  in
  let neighbours t e =
    let acc = ref [] in
    List.iter
      (fun (name, _) ->
        Structure.iter_rel t name (fun tup ->
            if Array.mem e tup then
              Array.iter (fun v -> if v <> e then acc := v :: !acc) tup))
      (Signature.rels (Structure.signature t));
    List.sort_uniq compare !acc
  in
  let initial (_, t, e) =
    let sg = Structure.signature t in
    ( List.map
        (fun (name, k) ->
          if k = 0 then (name, [ (if Structure.rel_count t name > 0 then 1 else 0) ])
          else
            ( name,
              List.init k (fun i ->
                  let c = ref 0 in
                  Structure.iter_rel t name (fun tup -> if tup.(i) = e then incr c);
                  !c) ))
        (Signature.rels sg),
      List.filter (fun c -> Structure.const t c = e) (Signature.consts sg) )
  in
  let adj = List.map (fun (i, t, e) -> (i, neighbours t e)) elems in
  let count cs = List.length (List.sort_uniq compare cs) in
  let rec refine cs =
    let colour = Array.of_list cs in
    let index = Array.of_list (List.map (fun (i, _, e) -> (i, e)) elems) in
    let find i v =
      let rec go j = if index.(j) = (i, v) then colour.(j) else go (j + 1) in
      go 0
    in
    let next =
      number
        (List.map2
           (fun c (i, ns) -> (c, List.sort compare (List.map (find i) ns)))
           cs adj)
    in
    if count next > count cs then refine next else next
  in
  let final = Array.of_list (refine (number (List.map initial elems))) in
  let base = ref 0 in
  List.map
    (fun t ->
      let n = Structure.size t in
      let out = Array.sub final !base n in
      base := !base + n;
      out)
    structures

(* Random structures with arities 0–3 and constants; with [hub], one
   element co-occurs with every other, so rows past 16 entries take the
   long-row sort. *)
let gen_wl : Structure.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = int_range 1 26 in
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
  let* hub = bool in
  let hub_rel, hub_sig =
    if hub then ([ ("H", List.init (n - 1) (fun v -> [| 0; v + 1 |])) ], [ ("H", 2) ])
    else ([], [])
  in
  let* pinned = list_size (int_range 0 2) elt in
  let consts = List.mapi (fun i e -> (Printf.sprintf "c%d" i, e)) pinned in
  return
    (Structure.make
       (Signature.make ~consts:(List.map fst consts) (rels @ hub_sig))
       ~size:n ~consts (tuples @ hub_rel))

let print_wl = Format.asprintf "%a" Structure.pp

let prop_wl_oracle =
  QCheck2.Test.make ~count:150 ~print:print_wl
    ~name:"wl refine = oracle, csr and set, workers 1/2/4" gen_wl (fun t ->
      let want = List.hd (oracle_wl [ t ]) in
      List.for_all
        (fun s ->
          List.for_all (fun workers -> Wl.refine ~workers s = want) [ 1; 2; 4 ])
        [ t; Structure.to_csr t; Structure.to_sets t ])

let prop_wl_joint_oracle =
  QCheck2.Test.make ~count:150
    ~print:(fun (a, b) -> print_wl a ^ "\n" ^ print_wl b)
    ~name:"wl colors_joint = oracle, workers 1/2"
    QCheck2.Gen.(pair gen_wl gen_wl)
    (fun (a, b) ->
      let want = match oracle_wl [ a; b ] with [ x; y ] -> (x, y) | _ -> assert false in
      List.for_all (fun workers -> Wl.colors_joint ~workers a b = want) [ 1; 2 ])

(* Minor-heap words one call allocates: arrays past the minor-heap size
   limit go straight to the major heap and do not count, so this
   measures per-element allocation. *)
let minor_words f =
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. before

let test_allocation_bounds () =
  let t = Gen.torus 100 100 in
  let n = float_of_int (Structure.size t) in
  ignore (Wl.refine t);
  let words = minor_words (fun () -> Wl.refine t) in
  checkb (Printf.sprintf "wl refine: %.0f minor words < n" words) true (words < n);
  let reg = Neighborhood.create_registry () in
  let cold = Neighborhood.census reg t ~radius:1 in
  let words = minor_words (fun () -> Neighborhood.census reg t ~radius:1) in
  checkb
    (Printf.sprintf "warm census: %.0f minor words < 8n" words)
    true (words < 8. *. n);
  checkb "warm census answers as the cold one" true
    (Neighborhood.census reg t ~radius:1 = cold);
  (* Row sorting is in place: building rows allocates no word per edge. *)
  let t = Gen.torus 316 316 in
  let n = Structure.size t in
  let src = Csr.Vec.create () and dst = Csr.Vec.create () in
  Structure.iter_rel2 t "E" (fun u v ->
      Csr.Vec.push src u;
      Csr.Vec.push dst v);
  let edges = (Csr.Vec.to_array src, Csr.Vec.to_array dst) in
  let words = minor_words (fun () -> Csr.of_edges ~n edges) in
  checkb
    (Printf.sprintf "of_edges: %.0f minor words < n" words)
    true
    (words < float_of_int n)

let prop_census_agrees =
  QCheck2.Test.make ~count:100
    ~name:"neighborhood census: csr = set = generic, workers 1/2/4" gen_graph
    (fun g ->
      let s, c = both g in
      List.for_all
        (fun radius ->
          (* Fresh registries: ids must coincide because discovery order
             does — that is the determinism claim, stronger than census
             equality up to renaming. *)
          let census b x =
            let reg = Neighborhood.create_registry () in
            Neighborhood.census ~workers:b reg x ~radius
          in
          let base = census 1 s in
          List.for_all (fun w -> census w c = base && census w s = base) [ 1; 2; 4 ])
        [ 0; 1; 2 ])

let prop_element_types_agree =
  QCheck2.Test.make ~count:100 ~name:"element types: csr = set, shared registry"
    gen_graph (fun g ->
      let s, c = both g in
      (* One registry across both views: the streaming fast path (csr)
         and its serialization cache must resolve to the ids the generic
         path established, and vice versa. *)
      let reg = Neighborhood.create_registry () in
      Neighborhood.element_types reg s ~radius:1
      = Neighborhood.element_types reg c ~radius:1)

let prop_hanf_agrees =
  QCheck2.Test.make ~count:60 ~name:"hanf equiv: csr = set, workers 1/2/4"
    QCheck2.Gen.(pair gen_graph gen_graph) (fun (g, h) ->
      let gs, gc = both g and hs, hc = both h in
      Structure.size g <> Structure.size h
      ||
      let base = Hanf.equiv ~radius:1 gs hs in
      List.for_all
        (fun workers -> Hanf.equiv ~workers ~radius:1 gc hc = base)
        [ 1; 2; 4 ])

let prop_bounded_degree_agrees =
  QCheck2.Test.make ~count:40 ~name:"bounded degree eval: csr = set" gen_graph
    (fun g ->
      let s, c = both g in
      let phi = f "forall x. exists y. E(x,y) | E(y,x)" in
      let ev () = Bounded_degree.make phi ~degree_bound:30 ~radius:1 ~threshold:2 in
      Bounded_degree.eval (ev ()) s = Bounded_degree.eval (ev ()) c)

(* ---------- Fault injection through the locality pipeline ---------- *)

let test_census_budget_faults () =
  let g = Structure.to_csr (Gen.cycle 64) in
  let reg () = Neighborhood.create_registry () in
  (* Exhaust_at: the census raises instead of answering, sequential and
     sharded alike. *)
  List.iter
    (fun workers ->
      let budget = Budget.create ~inject:(Budget.Exhaust_at 10) () in
      match Neighborhood.census ~workers ~budget (reg ()) g ~radius:1 with
      | _ -> Alcotest.failf "Exhaust_at survived (workers %d)" workers
      | exception Budget.Exhausted Budget.Fuel -> ())
    [ 1; 2; 4 ];
  (* Cancel_at behaves the same way. *)
  (let budget = Budget.create ~inject:(Budget.Cancel_at 10) () in
   match Neighborhood.census ~workers:2 ~budget (reg ()) g ~radius:1 with
   | _ -> Alcotest.fail "Cancel_at survived"
   | exception Budget.Exhausted Budget.Cancelled -> ());
  (* Raise_in_worker: the real fault wins over any concurrent
     Exhausted, and join discipline means no worker is leaked — the
     next call on the same pool must still answer. *)
  (* poll_interval 1: Raise_in_worker fires on the slow-path poll, and
     each worker only polls a handful of times on a 64-element census. *)
  (let budget = Budget.create ~poll_interval:1 ~inject:Budget.Raise_in_worker () in
   match Neighborhood.census ~workers:4 ~budget (reg ()) g ~radius:1 with
   | _ -> Alcotest.fail "Raise_in_worker survived"
   | exception Budget.Injected_fault -> ());
  let clean = Neighborhood.census ~workers:4 (reg ()) g ~radius:1 in
  checki "pool usable after fault" 1 (List.length clean);
  (* Wl.refine under the same discipline. *)
  (let budget = Budget.create ~inject:(Budget.Exhaust_at 5) () in
   match Wl.refine ~workers:2 ~budget g with
   | _ -> Alcotest.fail "refine: Exhaust_at survived"
   | exception Budget.Exhausted Budget.Fuel -> ());
  checkb "refine usable after fault" true (Array.length (Wl.refine ~workers:2 g) = 64)

(* ---------- Large-scale generators ---------- *)

let test_generators_regular () =
  let degrees g =
    let c = Option.get (Structure.csr_of_rel g "E") in
    List.init (Structure.size g) (Csr.degree c)
  in
  let t = Gen.torus 5 4 in
  checkb "torus 4-regular" true (List.for_all (( = ) 4) (degrees t));
  checki "torus vertex-transitive" 1
    (List.length (Neighborhood.census (Neighborhood.create_registry ()) t ~radius:1));
  let ch = Gen.chorded_cycle 12 ~stride:3 in
  checkb "chorded 4-regular" true (List.for_all (( = ) 4) (degrees ch));
  let rng = Random.State.make [| 7 |] in
  let r = Gen.random_regular ~rng 40 3 in
  checkb "random-regular exact" true (List.for_all (( = ) 3) (degrees r));
  checkb "no self loops" true
    (let ok = ref true in
     Structure.iter_rel2 r "E" (fun u v -> if u = v then ok := false);
     !ok);
  checkb "symmetric" true
    (let c = Option.get (Structure.csr_of_rel r "E") in
     let ok = ref true in
     Csr.iter_edges c (fun u v -> if not (Csr.mem c v u) then ok := false);
     !ok);
  (* Determinism: the same seed reproduces the same graph. *)
  let r2 = Gen.random_regular ~rng:(Random.State.make [| 7 |]) 40 3 in
  checkb "seeded determinism" true (Structure.equal r r2)

(* Small dense inputs can stall the 2-switch repair (K4 is the only
   simple 3-regular graph on 4 vertices), and near K_n a switch almost
   never finds both new edges absent; every seed must still give a
   simple d-regular graph rather than an exception or a spin. *)
let test_random_regular_small () =
  List.iter
    (fun (n, d) ->
      for seed = 0 to 199 do
        let g = Gen.random_regular ~rng:(Random.State.make [| seed |]) n d in
        let deg = Array.make n 0 and simple = ref true in
        Structure.iter_rel2 g "E" (fun u v ->
            deg.(u) <- deg.(u) + 1;
            if u = v || not (Structure.mem g "E" [| v; u |]) then simple := false);
        checkb
          (Printf.sprintf "n=%d seed %d: simple %d-regular" n seed d)
          true
          (!simple && Array.for_all (( = ) d) deg)
      done)
    [ (4, 3); (6, 3); (8, 3); (4, 2); (10, 7); (12, 10) ];
  (* Complete graphs as regular specs, admitted by the server's store
     (at most 10^6 tuples): built, not refused or left spinning. *)
  List.iter
    (fun n ->
      let spec = Printf.sprintf "regular:%d:%d:1" n (n - 1) in
      match Spec.parse spec with
      | Error e -> Alcotest.fail e
      | Ok g ->
          let c = Option.get (Structure.csr_of_rel g "E") in
          let complete = ref (Structure.tuple_count g = n * (n - 1)) in
          for u = 0 to n - 1 do
            for v = 0 to n - 1 do
              if u <> v && not (Csr.mem c u v) then complete := false
            done
          done;
          checkb (spec ^ " is K_n") true !complete)
    [ 100; 1000 ]

(* ---------- Streaming edge-list format ---------- *)

let test_graph_format () =
  let s = Result.get_ok (Io.parse "# c5\ngraph 5\n0 1\n1 2\n2 3\n3 4\n4 0\n") in
  checki "undirected doubles" 10 (Structure.rel_count s "E");
  checkb "roundtrip" true
    (Structure.equal s (Result.get_ok (Io.parse (Io.to_graph_string s))));
  let d = Result.get_ok (Io.parse "graph 3 directed\n0 1\n1 2\n") in
  checki "directed keeps" 2 (Structure.rel_count d "E");
  checkb "directed equal gen" true (Structure.equal d (Gen.path 3));
  (* Total-parser error discipline: malformed lines answer Error with a
     line number, never an exception. *)
  List.iter
    (fun (text, frag) ->
      match Io.parse text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error e ->
          let contains hay needle =
            let nh = String.length hay and nn = String.length needle in
            let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
            go 0
          in
          checkb (Printf.sprintf "%S reports %s" text frag) true (contains e frag))
    [
      ("graph 3\n0 5\n", "line 2");
      ("graph 3\n0\n", "line 2");
      ("graph 3\n0 1 2\n", "trailing");
      ("graph 3\n0 99999999999999999999\n", "too large");
      ("graph -1\n", "bad graph header");
      ("graph 3 sideways\n", "bad graph header");
      ("graph 46116860184273\n", "too large to allocate");
    ];
  (* The declared element count is readable before anything is built. *)
  List.iter
    (fun (text, n) ->
      checkb (Printf.sprintf "declared size of %S" text) true (Io.declared_size text = n))
    [
      ("# big\ngraph 46116860184273\n0 1\n", Some 46116860184273);
      ("domain 3\nrel E/2 = (0,1)\ndomain 900\n", Some 900);
      ("0 1\ngraph 5\n", None);
      ("rel E/2 = (0,1)\n", None);
    ];
  (* [load] streams without reading the whole file. *)
  let tmp = Filename.temp_file "fmtk_graph" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      let oc = open_out tmp in
      output_string oc "graph 4\n0 1\n1 2\n2 3\n";
      close_out oc;
      match Io.load tmp with
      | Ok g -> checki "loaded edges" 6 (Structure.rel_count g "E")
      | Error e -> Alcotest.fail e)

let test_spec_families () =
  let size spec =
    match Spec.parse spec with
    | Ok s -> Structure.size s
    | Error e -> Alcotest.fail e
  in
  checki "torus spec" 12 (size "torus:4x3");
  checki "chorded spec" 10 (size "chorded:10:3");
  checki "regular spec" 20 (size "regular:20:4:7");
  List.iter
    (fun bad ->
      match Spec.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [
      "torus:4"; "chorded:10:0"; "regular:20:21:7"; "regular:5:3:1";
      "random:10:1.5:1"; "random:10:-0.5:1"; "random:10:nan:1";
    ];
  (* A generator's declared sizes, computed from its arguments, are the
     built structure's: exact, or an upper bound on the tuples. *)
  List.iter
    (fun (spec, exact) ->
      match Spec.generator spec with
      | Error e -> Alcotest.fail e
      | Ok g ->
          let s = Result.get_ok (g.Spec.build ()) in
          checki (spec ^ " elements") g.Spec.elements (Structure.size s);
          checkb (spec ^ " tuples") true
            (if exact then g.Spec.tuples = Structure.tuple_count s
             else g.Spec.tuples >= Structure.tuple_count s))
    [
      ("set:4", true); ("order:7", true); ("chain:6", true); ("cycle:8", true);
      ("complete:5", true); ("tree:3", true); ("paley:13", true); ("cfi:4", true);
      ("cfi-twisted:4", true); ("regular:20:4:7", true); ("grid:3x4", false);
      ("torus:4x3", false); ("chorded:10:3", false); ("random:20:0.3:7", false);
    ];
  (match Spec.generator "tree:100" with
  | Ok g -> checki "sizes saturate" max_int g.Spec.elements
  | Error e -> Alcotest.fail e);
  (* Only [parse] reads files. *)
  let tmp = Filename.temp_file "fmtk_spec" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove tmp)
    (fun () ->
      Out_channel.with_open_text tmp (fun oc -> output_string oc "graph 2\n0 1\n");
      checkb "parse loads a file" true (Result.is_ok (Spec.parse tmp));
      checkb "generator refuses a file" true (Result.is_error (Spec.generator tmp)))

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_eval_agrees;
      prop_structure_equal;
      prop_wl_agrees;
      prop_wl_oracle;
      prop_wl_joint_oracle;
      prop_census_agrees;
      prop_element_types_agree;
      prop_hanf_agrees;
      prop_bounded_degree_agrees;
    ]

let () =
  Alcotest.run "fmtk_csr"
    [
      ( "csr",
        [
          Alcotest.test_case "normalized rows" `Quick test_csr_normalized;
          Alcotest.test_case "append and relabel" `Quick test_csr_append_relabel;
          Alcotest.test_case "degrees" `Quick test_csr_degrees;
          Alcotest.test_case "transpose and tuple sets" `Quick
            test_csr_transpose_and_sets;
        ] );
      ( "backend",
        [
          Alcotest.test_case "auto selection" `Quick test_backend_selection;
          Alcotest.test_case "edit = with_rel = of_edges" `Quick
            test_edit_differential;
          Alcotest.test_case "edits across the csr threshold" `Quick
            test_edit_threshold;
          Alcotest.test_case "edit sharing and errors" `Quick
            test_edit_sharing_and_errors;
          Alcotest.test_case "budget faults" `Quick test_census_budget_faults;
          Alcotest.test_case "allocation bounds" `Quick test_allocation_bounds;
        ] );
      ( "generators",
        [
          Alcotest.test_case "regular families" `Quick test_generators_regular;
          Alcotest.test_case "random regular on small n" `Quick
            test_random_regular_small;
        ] );
      ( "io",
        [
          Alcotest.test_case "graph format" `Quick test_graph_format;
          Alcotest.test_case "spec families" `Quick test_spec_families;
        ] );
      ("differential", qcheck_cases);
    ]
