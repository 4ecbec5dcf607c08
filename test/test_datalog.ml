(* Tests for Fmtk_datalog: AST validation, stratification, naive and
   semi-naive evaluation, canonical programs. *)

module Ast = Fmtk_datalog.Ast
module Engine = Fmtk_datalog.Engine
module Programs = Fmtk_datalog.Programs
module Structure = Fmtk_structure.Structure
module Signature = Fmtk_logic.Signature
module Tuple = Fmtk_structure.Tuple
module Graph = Fmtk_structure.Graph
module Gen = Fmtk_structure.Gen
open Ast

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg

let atom pred args = { pred; args }

let graph_of edges ~size =
  Structure.make Signature.graph ~size
    [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ]

(* ---------- AST ---------- *)

let test_range_restriction () =
  let ok = { head = atom "p" [ V "x" ]; body = [ Pos (atom "e" [ V "x"; V "y" ]) ] } in
  checkb "safe rule" true (range_restricted ok = Ok ());
  let bad_head = { head = atom "p" [ V "z" ]; body = [ Pos (atom "e" [ V "x"; V "y" ]) ] } in
  checkb "unsafe head" true (range_restricted bad_head = Error "z");
  let bad_neg =
    {
      head = atom "p" [ V "x" ];
      body = [ Pos (atom "e" [ V "x"; V "x" ]); Neg (atom "e" [ V "x"; V "w" ]) ];
    }
  in
  checkb "unsafe negation" true (range_restricted bad_neg = Error "w")

let test_stratification () =
  (* tc program: single stratum. *)
  (match stratify Programs.transitive_closure with
  | Ok [ _ ] -> ()
  | Ok strata -> Alcotest.failf "expected 1 stratum, got %d" (List.length strata)
  | Error e -> Alcotest.failf "unexpected: %s" e);
  (* unreachable: two strata, tc before unreach. *)
  (match stratify Programs.unreachable with
  | Ok [ s1; s2 ] ->
      checkb "tc first" true
        (List.for_all (fun r -> r.head.pred = "tc") s1);
      checkb "unreach second" true
        (List.for_all (fun r -> r.head.pred = "unreach") s2)
  | Ok strata -> Alcotest.failf "expected 2 strata, got %d" (List.length strata)
  | Error e -> Alcotest.failf "unexpected: %s" e);
  (* p :- !p is not stratifiable. *)
  let bad =
    [ { head = atom "p" [ V "x" ]; body = [ Pos (atom "e" [ V "x" ]); Neg (atom "p" [ V "x" ]) ] } ]
  in
  checkb "negative self-dependency" true (stratify bad = Error "p")

(* ---------- Engine vs reference graph algorithms ---------- *)

let test_tc_matches_graph () =
  let graphs =
    [
      Gen.successor 6;
      Gen.cycle 5;
      graph_of [ (0, 1); (1, 2); (2, 0); (3, 4) ] ~size:5;
      graph_of [] ~size:3;
      Gen.binary_tree 3;
    ]
  in
  List.iter
    (fun g ->
      checkb "datalog TC = Floyd-Warshall TC" true
        (Tuple.Set.equal (Programs.tc_of g) (Graph.transitive_closure g)))
    graphs

let test_naive_equals_seminaive () =
  let g = graph_of [ (0, 1); (1, 2); (2, 3); (3, 1); (0, 4) ] ~size:5 in
  List.iter
    (fun program ->
      let db = Engine.Db.of_structure g in
      let r1, _ = Engine.naive program db in
      let r2, _ = Engine.seminaive program db in
      List.iter
        (fun pred ->
          checkb
            (Printf.sprintf "agree on %s" pred)
            true
            (Tuple.Set.equal (Engine.Db.find r1 pred) (Engine.Db.find r2 pred)))
        (Ast.idb_preds program))
    [ Programs.transitive_closure; Programs.same_generation; Programs.unreachable ]

let test_seminaive_less_work () =
  (* On a long chain, semi-naive does asymptotically less join work. *)
  let g = Gen.successor 24 in
  let db = Engine.Db.of_structure g in
  let _, naive_stats = Engine.naive Programs.transitive_closure db in
  let _, semi_stats = Engine.seminaive Programs.transitive_closure db in
  checkb "semi-naive does less work" true
    (semi_stats.Engine.join_work < naive_stats.Engine.join_work);
  checkb "both iterate about n times" true
    (naive_stats.Engine.iterations >= 23 && semi_stats.Engine.iterations >= 23)

let test_same_generation () =
  (* On the full binary tree, x and y are in the same generation iff they
     are at the same depth. *)
  let depth_of i =
    let rec go i d = if i = 0 then d else go ((i - 1) / 2) (d + 1) in
    go i 0
  in
  let t = Gen.binary_tree 3 in
  let sg = Programs.sg_of t in
  let n = Structure.size t in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      checkb
        (Printf.sprintf "sg(%d,%d)" i j)
        (depth_of i = depth_of j)
        (Tuple.Set.mem [| i; j |] sg)
    done
  done

let test_stratified_negation () =
  let g = graph_of [ (0, 1); (1, 2) ] ~size:4 in
  (* nonedge = complement. *)
  let nonedge = Engine.run Programs.non_edge g ~pred:"nonedge" in
  checki "16 pairs - 2 edges" 14 (Tuple.Set.cardinal nonedge);
  checkb "complement correct" true
    (Tuple.Set.mem [| 1; 0 |] nonedge && not (Tuple.Set.mem [| 0; 1 |] nonedge));
  (* unreach = complement of tc. *)
  let unreach = Engine.run Programs.unreachable g ~pred:"unreach" in
  let tc = Graph.transitive_closure g in
  let n = Structure.size g in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      checkb
        (Printf.sprintf "unreach(%d,%d)" u v)
        (not (Tuple.Set.mem [| u; v |] tc))
        (Tuple.Set.mem [| u; v |] unreach)
    done
  done

let test_constants_in_rules () =
  (* reach0(x) :- tc(0, x) — constants in rule bodies. *)
  let program =
    Programs.transitive_closure
    @ [ { head = atom "reach0" [ V "x" ]; body = [ Pos (atom "tc" [ C 0; V "x" ]) ] } ]
  in
  let g = graph_of [ (0, 1); (1, 2); (3, 0) ] ~size:4 in
  let reach = Engine.run program g ~pred:"reach0" in
  checkb "0 reaches 1, 2" true
    (Tuple.Set.mem [| 1 |] reach && Tuple.Set.mem [| 2 |] reach);
  checkb "0 does not reach 3" false (Tuple.Set.mem [| 3 |] reach)

let test_engine_validation () =
  let bad = [ { head = atom "p" [ V "z" ]; body = [ Pos (atom "e" [ V "x" ]) ] } ] in
  let db = Engine.Db.empty in
  (try
     ignore (Engine.naive bad db);
     Alcotest.fail "unsafe rule must be rejected"
   with Invalid_argument _ -> ());
  let unstrat =
    [ { head = atom "p" [ V "x" ]; body = [ Pos (atom "e" [ V "x" ]); Neg (atom "p" [ V "x" ]) ] } ]
  in
  try
    ignore (Engine.seminaive unstrat db);
    Alcotest.fail "unstratifiable program must be rejected"
  with Invalid_argument _ -> ()

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* A predicate has one arity, across the program and in the database.
   Both strategies refuse a program or database that gives it two before
   evaluating anything, and the message names the predicate. *)
let test_arity_validation () =
  let db = Engine.Db.of_structure (graph_of [ (0, 1); (1, 2) ] ~size:3) in
  let x = V "x" and y = V "y" in
  let unary_e =
    Engine.Db.add "E" (Tuple.Set.of_list [ [| 0 |]; [| 1 |] ]) Engine.Db.empty
  in
  List.iter
    (fun (label, pred, program, db) ->
      List.iter
        (fun (strategy, eval) ->
          match eval program db with
          | _ -> Alcotest.failf "%s (%s) was accepted" label strategy
          | exception Invalid_argument m ->
              checkb
                (Printf.sprintf "%s (%s): %S names %S" label strategy m pred)
                true
                (contains m (Printf.sprintf "%S" pred)))
        [
          ("naive", Engine.naive ?budget:None);
          ("semi-naive", Engine.seminaive ?budget:None);
        ])
    [
      ( "E(x) on a binary E",
        "E",
        [ { head = atom "p" [ x ]; body = [ Pos (atom "E" [ x ]) ] } ],
        db );
      ( "p at arities 1 and 2",
        "p",
        [
          { head = atom "p" [ x ]; body = [ Pos (atom "E" [ x; y ]) ] };
          { head = atom "p" [ x; y ]; body = [ Pos (atom "E" [ x; y ]) ] };
        ],
        db );
      ( "E negated at arity 1",
        "E",
        [
          {
            head = atom "p" [ x ];
            body = [ Pos (atom "E" [ x; y ]); Neg (atom "E" [ x ]) ];
          };
        ],
        db );
      ("TC on a unary E", "E", Programs.transitive_closure, unary_e);
    ]

let test_db_of_structure () =
  let g = graph_of [ (0, 1) ] ~size:3 in
  let db = Engine.Db.of_structure g in
  checki "adom" 3 (Tuple.Set.cardinal (Engine.Db.find db "adom"));
  checki "E" 1 (Tuple.Set.cardinal (Engine.Db.find db "E"));
  checki "unknown pred empty" 0 (Tuple.Set.cardinal (Engine.Db.find db "zzz"))

(* Round counts are part of the engine's contract (E18 and lib_batch
   report them): both strategies take these, the counts of the
   tuple-at-a-time engine this one replaced. *)
let test_iterations_pinned () =
  let graphs =
    [
      ("successor 6", Gen.successor 6);
      ("cycle 5", Gen.cycle 5);
      ("binary tree 3", Gen.binary_tree 3);
      ("mixed", graph_of [ (0, 1); (1, 2); (2, 3); (3, 1); (0, 4) ] ~size:5);
      ("no edges", graph_of [] ~size:3);
    ]
  in
  List.iter
    (fun (name, program, rounds) ->
      List.iter2
        (fun (gname, g) want ->
          let db = Engine.Db.of_structure g in
          let _, n = Engine.naive program db in
          let _, s = Engine.seminaive program db in
          checki (Printf.sprintf "%s on %s, naive" name gname) want
            n.Engine.iterations;
          checki (Printf.sprintf "%s on %s, semi-naive" name gname) want
            s.Engine.iterations)
        graphs rounds)
    [
      ("tc", Programs.transitive_closure, [ 6; 6; 4; 4; 1 ]);
      ("sg", Programs.same_generation, [ 2; 2; 5; 3; 2 ]);
      ("unreach", Programs.unreachable, [ 8; 7; 6; 6; 3 ]);
      ("nonedge", Programs.non_edge, [ 2; 2; 2; 2; 2 ]);
    ]

(* ---------- both strategies vs a brute-force oracle ---------- *)

(* A random stratified program over E/2, U/1 and adom/1. IDB predicate
   [p<i>] has an arity in 0..2 and a level. Its rules read the EDB and
   the IDB predicates of its level or below, negate only the EDB and
   lower levels, and use only variables that a positive literal binds.
   Constants range over 0..n, one past the domain. *)
type case = {
  size : int;
  edges : (int * int) list;
  us : int list;
  levels : (string * int) list;
  program : program;
}

let gen_case =
  let open QCheck2.Gen in
  let* size = int_range 1 4 in
  let* edges =
    list_size (int_range 0 (3 * size))
      (pair (int_range 0 (size - 1)) (int_range 0 (size - 1)))
  in
  let* us = list_size (int_range 0 size) (int_range 0 (size - 1)) in
  let* m = int_range 1 3 in
  let* arities = list_repeat m (int_range 0 2) in
  let* bumps = list_repeat m bool in
  let idb =
    List.rev
      (snd
         (List.fold_left
            (fun (level, acc) (i, (k, bump)) ->
              let level = if bump && i > 0 then level + 1 else level in
              (level, (Printf.sprintf "p%d" i, k, level) :: acc))
            (0, [])
            (List.mapi (fun i d -> (i, d)) (List.combine arities bumps))))
  in
  (* IDB predicates are drawn twice as often as EDB ones, so that
     recursion runs for several rounds. *)
  let below keep =
    [ (1, ("E", 2)); (1, ("U", 1)); (1, ("adom", 1)) ]
    @ List.filter_map
        (fun (q, k, l) -> if keep l then Some (2, (q, k)) else None)
        idb
  in
  let gen_term vars =
    let const = map (fun c -> C c) (int_range 0 size) in
    if vars = [] then const
    else frequency [ (6, map (fun x -> V x) (oneofl vars)); (1, const) ]
  in
  let gen_atom preds vars =
    let* p, k = frequencyl preds in
    let* args = list_repeat k (gen_term vars) in
    return (atom p args)
  in
  let gen_rule (p, k, level) =
    let* pos =
      list_size (int_range 0 3)
        (gen_atom (below (fun l -> l <= level)) [ "x"; "y"; "z" ])
    in
    let bound = List.sort_uniq compare (List.concat_map atom_vars pos) in
    let* neg =
      list_size
        (frequencyl [ (3, 0); (2, 1); (1, 2) ])
        (gen_atom (below (fun l -> l < level)) bound)
    in
    let* head = list_repeat k (gen_term bound) in
    let* body =
      shuffle_l (List.map (fun a -> Pos a) pos @ List.map (fun a -> Neg a) neg)
    in
    return { head = atom p head; body }
  in
  let* rules =
    flatten_l (List.map (fun d -> list_size (int_range 1 2) (gen_rule d)) idb)
  in
  return
    {
      size;
      edges;
      us;
      levels = List.map (fun (p, _, l) -> (p, l)) idb;
      program = List.concat rules;
    }

let print_case c =
  Format.asprintf "@[<v>domain %d, E = %s, U = %s@,%a@]" c.size
    (String.concat " "
       (List.map (fun (u, v) -> Printf.sprintf "(%d,%d)" u v) c.edges))
    (String.concat " " (List.map string_of_int c.us))
    pp_program c.program

(* Level by level, every assignment of a rule's variables over the domain
   and the program's constants, until no rule adds a tuple. *)
let oracle c =
  let rel = Hashtbl.create 8 in
  let find p = Option.value ~default:Tuple.Set.empty (Hashtbl.find_opt rel p) in
  let of_list = Tuple.Set.of_list in
  Hashtbl.replace rel "E"
    (of_list (List.map (fun (u, v) -> [| u; v |]) c.edges));
  Hashtbl.replace rel "U" (of_list (List.map (fun u -> [| u |]) c.us));
  Hashtbl.replace rel "adom" (of_list (List.init c.size (fun u -> [| u |])));
  let atoms r = r.head :: List.map (function Pos a | Neg a -> a) r.body in
  let consts =
    List.concat_map
      (fun r ->
        List.concat_map
          (fun a ->
            List.filter_map (function C n -> Some n | V _ -> None) a.args)
          (atoms r))
      c.program
  in
  let dom = List.sort_uniq compare (List.init c.size Fun.id @ consts) in
  let rec assignments = function
    | [] -> [ [] ]
    | x :: xs ->
        List.concat_map
          (fun env -> List.map (fun v -> (x, v) :: env) dom)
          (assignments xs)
  in
  let ground env a =
    Array.of_list
      (List.map (function C n -> n | V x -> List.assoc x env) a.args)
  in
  let holds env = function
    | Pos a -> Tuple.Set.mem (ground env a) (find a.pred)
    | Neg a -> not (Tuple.Set.mem (ground env a) (find a.pred))
  in
  let top = List.fold_left (fun acc (_, l) -> max acc l) 0 c.levels in
  for level = 0 to top do
    let rules =
      List.filter (fun r -> List.assoc r.head.pred c.levels = level) c.program
    in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun r ->
          let vars =
            List.sort_uniq compare (List.concat_map atom_vars (atoms r))
          in
          List.iter
            (fun env ->
              let t = ground env r.head in
              if List.for_all (holds env) r.body
                 && not (Tuple.Set.mem t (find r.head.pred))
              then begin
                Hashtbl.replace rel r.head.pred
                  (Tuple.Set.add t (find r.head.pred));
                changed := true
              end)
            (assignments vars))
        rules
    done
  done;
  find

let prop_oracle =
  QCheck2.Test.make ~count:400 ~print:print_case
    ~name:"brute-force oracle = naive = semi-naive on random programs"
    gen_case (fun c ->
      let s =
        Structure.make
          (Signature.make [ ("E", 2); ("U", 1) ])
          ~size:c.size
          [
            ("E", List.map (fun (u, v) -> [| u; v |]) c.edges);
            ("U", List.map (fun u -> [| u |]) c.us);
          ]
      in
      let db = Engine.Db.of_structure s in
      let rn, n = Engine.naive c.program db in
      let rs, sn = Engine.seminaive c.program db in
      let want = oracle c in
      n.Engine.iterations = sn.Engine.iterations
      && List.for_all
           (fun (p, _) ->
             Tuple.Set.equal (want p) (Engine.Db.find rn p)
             && Tuple.Set.equal (want p) (Engine.Db.find rs p))
           c.levels)

(* ---------- QCheck ---------- *)

let gen_graph =
  let open QCheck2.Gen in
  let* n = int_range 1 7 in
  let* edges =
    list_size (int_range 0 (n * 2))
      (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
  in
  return (graph_of edges ~size:n)

let prop_tc_correct =
  QCheck2.Test.make ~count:100 ~name:"datalog TC = matrix TC on random graphs"
    gen_graph (fun g ->
      Tuple.Set.equal (Programs.tc_of g) (Graph.transitive_closure g))

let prop_strategies_agree =
  QCheck2.Test.make ~count:100 ~name:"naive = semi-naive on random graphs"
    gen_graph (fun g ->
      let db = Engine.Db.of_structure g in
      let r1, _ = Engine.naive Programs.same_generation db in
      let r2, _ = Engine.seminaive Programs.same_generation db in
      Tuple.Set.equal (Engine.Db.find r1 "sg") (Engine.Db.find r2 "sg"))

let prop_sg_reflexive_symmetric =
  QCheck2.Test.make ~count:100 ~name:"same-generation is reflexive and symmetric"
    gen_graph (fun g ->
      let sg = Programs.sg_of g in
      let n = Structure.size g in
      let refl = List.for_all (fun i -> Tuple.Set.mem [| i; i |] sg) (List.init n Fun.id) in
      let sym =
        Tuple.Set.for_all (fun t -> Tuple.Set.mem [| t.(1); t.(0) |] sg) sg
      in
      refl && sym)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_tc_correct;
      prop_strategies_agree;
      prop_sg_reflexive_symmetric;
      prop_oracle;
    ]

let () =
  Alcotest.run "fmtk_datalog"
    [
      ( "ast",
        [
          Alcotest.test_case "range restriction" `Quick test_range_restriction;
          Alcotest.test_case "stratification" `Quick test_stratification;
        ] );
      ( "engine",
        [
          Alcotest.test_case "TC matches reference" `Quick test_tc_matches_graph;
          Alcotest.test_case "naive = semi-naive" `Quick test_naive_equals_seminaive;
          Alcotest.test_case "semi-naive work" `Quick test_seminaive_less_work;
          Alcotest.test_case "same generation" `Quick test_same_generation;
          Alcotest.test_case "stratified negation" `Quick test_stratified_negation;
          Alcotest.test_case "constants in rules" `Quick test_constants_in_rules;
          Alcotest.test_case "validation" `Quick test_engine_validation;
          Alcotest.test_case "arity validation" `Quick test_arity_validation;
          Alcotest.test_case "iterations pinned" `Quick test_iterations_pinned;
          Alcotest.test_case "db of structure" `Quick test_db_of_structure;
        ] );
      ("properties", qcheck_cases);
    ]
