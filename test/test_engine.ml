(* Differential tests for the generic game kernel (Fmtk_games.Engine)
   and its three instances.

   The EF and pebble solvers were ported from hand-rolled loops onto the
   kernel; the oracles below are deliberately naive re-implementations
   of the pre-refactor semantics (plain recursion, no memo, no orbits,
   no parallelism, bijections enumerated rather than matched), so any
   divergence introduced by the kernel — memo keys, orbit pruning, the
   work-stealing fan-out — shows up as a verdict flip on random
   structure pairs. A move is legal in the oracles when [Iso.partial_iso]
   holds of the extended pair list: the definition, not the solvers'
   incremental [Iso.extension_ok]. The counting game is also checked
   against its closed-form companion (k-WL / C^{k+1}) through the sound
   one-directional implications, and against the Cai–Fürer–Immerman
   separation witnesses. *)

module Signature = Fmtk_logic.Signature
module Formula = Fmtk_logic.Formula
module Eval = Fmtk_eval.Eval
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Gen = Fmtk_structure.Gen
module Iso = Fmtk_structure.Iso
module Wl = Fmtk_structure.Wl
module Graph = Fmtk_structure.Graph
module Engine = Fmtk_games.Engine
module Ef = Fmtk_games.Ef
module Pebble = Fmtk_games.Pebble
module Counting_game = Fmtk_games.Counting_game
module Budget = Fmtk_runtime.Budget

let checkb msg = Alcotest.check Alcotest.bool msg

(* ---------- Oracles: pre-refactor game semantics, naively ---------- *)

(* Does pebbling [(x, y)] on top of [pairs] keep a partial isomorphism? *)
let legal a b pairs xy = Iso.partial_iso a b (xy :: pairs)

let oracle_ef ?(start = []) ~rounds a b =
  let dom_a = Structure.domain a and dom_b = Structure.domain b in
  let rec win n pairs =
    n = 0
    || (List.for_all
          (fun x ->
            List.exists
              (fun y -> legal a b pairs (x, y) && win (n - 1) ((x, y) :: pairs))
              dom_b)
          dom_a
       && List.for_all
            (fun y ->
              List.exists
                (fun x -> legal a b pairs (x, y) && win (n - 1) ((x, y) :: pairs))
                dom_a)
            dom_b)
  in
  Iso.partial_iso a b start && win rounds start

(* Positions as sorted pair lists (set semantics): the bases a spoiler
   move starts from keep every pebble (while one is free) or lift one. *)
let rec lift = function
  | [] -> []
  | p :: rest -> rest :: List.map (fun l -> p :: l) (lift rest)

let bases ~pebbles pairs =
  let bases =
    if List.length pairs < pebbles then pairs :: lift pairs else lift pairs
  in
  if bases = [] then [ [] ] else bases

let oracle_pebble ~pebbles ~rounds a b =
  let dom_a = Structure.domain a and dom_b = Structure.domain b in
  let rec win n pairs =
    n = 0
    || begin
         List.for_all
           (fun base ->
             List.for_all
               (fun x ->
                 List.exists
                   (fun y ->
                     legal a b base (x, y)
                     && win (n - 1)
                          (List.sort_uniq compare ((x, y) :: base)))
                   dom_b)
               dom_a
             && List.for_all
                  (fun y ->
                    List.exists
                      (fun x ->
                        legal a b base (x, y)
                        && win (n - 1)
                             (List.sort_uniq compare ((x, y) :: base)))
                      dom_a)
                  dom_b)
           (bases ~pebbles pairs)
       end
  in
  Iso.partial_iso a b [] && win rounds []

(* The bijective game by enumeration: from each base, some bijection
   [f : A -> B] must make every [(x, f x)] legal and winning. *)
let oracle_counting ~pebbles ~rounds a b =
  let n = Structure.size a in
  let rec perms = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun y -> List.map (List.cons y) (perms (List.filter (( <> ) y) l)))
          l
  in
  let rec win r pairs =
    r = 0
    || List.for_all
         (fun base ->
           let good x y =
             legal a b base (x, y)
             && win (r - 1) (List.sort_uniq compare ((x, y) :: base))
           in
           let good = Array.init n (fun x -> Array.init n (good x)) in
           List.exists
             (fun f -> List.for_all Fun.id (List.mapi (fun x y -> good.(x).(y)) f))
             (perms (Structure.domain b)))
         (bases ~pebbles pairs)
  in
  Iso.partial_iso a b []
  && (rounds = 0 || Structure.size b = n)
  && win rounds []

(* ---------- Random structure pairs ---------- *)

let gen_structure : Structure.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let named =
    let* n = int_range 2 5 in
    oneofl
      [ Gen.cycle n; Gen.set n; Gen.linear_order n; Gen.path n;
        Gen.complete n ]
  in
  let random =
    let* n = int_range 2 5 in
    let* edges =
      list_size (int_range 0 (n * 2))
        (pair (int_range 0 (n - 1)) (int_range 0 (n - 1)))
    in
    return
      (Structure.make Signature.graph ~size:n
         [ ("E", List.map (fun (u, v) -> [| u; v |]) edges) ])
  in
  oneof [ named; random; random ]

(* Pairs biased toward near-equivalence: comparing a structure against
   itself or a same-family sibling exercises the Equivalent branch,
   which pruning bugs affect most. *)
let gen_pair =
  let open QCheck2.Gen in
  let* a = gen_structure in
  let* b = oneof [ gen_structure; return a ] in
  return (a, b)

(* ---------- Engine-ported solvers agree with the oracles ---------- *)

let ef_configs =
  [
    ("default", Ef.default_config);
    ("no-memo", { Ef.default_config with memo = false });
    ("no-orbit", { Ef.default_config with orbit = false });
    ("forced-parallel", { Ef.default_config with workers = Some 3 });
    ( "bare",
      { Ef.memo = false; parallel = false; workers = None; orbit = false } );
  ]

let prop_ef_matches_oracle =
  QCheck2.Test.make ~count:320 ~name:"engine EF = oracle EF (all configs)"
    QCheck2.Gen.(pair gen_pair (int_range 0 3))
    (fun ((a, b), rounds) ->
      let expected = oracle_ef ~rounds a b in
      List.for_all
        (fun (name, config) ->
          let got, (stats : Ef.stats) = Ef.solve ~config ~rounds a b in
          if got <> expected then
            QCheck2.Test.fail_reportf "EF config %s: got %b, oracle %b" name
              got expected
          else stats.workers >= 1)
        ef_configs)

let pebble_configs =
  [
    ("default", Pebble.default_config);
    ("no-memo", { Pebble.default_config with memo = false });
    ("no-orbit", { Pebble.default_config with orbit = false });
    ("forced-parallel", { Pebble.default_config with workers = Some 3 });
  ]

let prop_pebble_matches_oracle =
  QCheck2.Test.make ~count:320
    ~name:"engine pebble = oracle pebble (all configs)"
    QCheck2.Gen.(pair gen_pair (pair (int_range 1 3) (int_range 0 3)))
    (fun ((a, b), (pebbles, rounds)) ->
      let expected = oracle_pebble ~pebbles ~rounds a b in
      List.for_all
        (fun (name, config) ->
          let got, (_ : Pebble.stats) =
            Pebble.solve ~config ~pebbles ~rounds a b
          in
          if got <> expected then
            QCheck2.Test.fail_reportf "pebble config %s: got %b, oracle %b"
              name got expected
          else true)
        pebble_configs)

let counting_configs =
  [
    ("default", Counting_game.default_config);
    ("no-memo", { Counting_game.default_config with memo = false });
    ("forced-parallel", { Counting_game.default_config with workers = Some 3 });
  ]

let prop_counting_matches_oracle =
  QCheck2.Test.make ~count:150
    ~name:"engine counting = oracle counting (all configs)"
    QCheck2.Gen.(pair gen_pair (pair (int_range 1 3) (int_range 0 3)))
    (fun ((a, b), (pebbles, rounds)) ->
      let expected = oracle_counting ~pebbles ~rounds a b in
      List.for_all
        (fun (name, config) ->
          let got, (_ : Counting_game.stats) =
            Counting_game.solve ~config ~pebbles ~rounds a b
          in
          if got <> expected then
            QCheck2.Test.fail_reportf "counting config %s: got %b, oracle %b"
              name got expected
          else true)
        counting_configs)

(* Games compare structures over the union of their signatures, an
   undeclared relation being empty, so every game is symmetric — also
   when [gen_pair] plays a bare set against a graph. *)
let prop_games_symmetric =
  QCheck2.Test.make ~count:200 ~name:"solve a b = solve b a (EF, pebble, counting)"
    QCheck2.Gen.(pair gen_pair (pair (int_range 1 3) (int_range 0 3)))
    (fun ((a, b), (pebbles, rounds)) ->
      let ef x y = fst (Ef.solve ~rounds x y) in
      let pebble x y = fst (Pebble.solve ~pebbles ~rounds x y) in
      let counting x y =
        Counting_game.duplicator_wins ~pebbles:(min pebbles 2) ~rounds x y
      in
      if ef a b <> ef b a then QCheck2.Test.fail_report "EF is asymmetric"
      else if pebble a b <> pebble b a then
        QCheck2.Test.fail_report "pebble game is asymmetric"
      else if counting a b <> counting b a then
        QCheck2.Test.fail_report "counting game is asymmetric"
      else true)

(* ---------- Certified EF solves ---------- *)

(* [s] with the relations of [sg] it does not declare added empty, so a
   certificate over both signatures evaluates on it. *)
let pad sg s =
  List.fold_left
    (fun s (r, k) ->
      if Signature.mem_rel (Structure.signature s) r then s
      else Structure.with_rel s r k Tuple.Set.empty)
    s (Signature.rels sg)

(* A pair from [gen_pair], sometimes with a constant pinned on each side,
   a random start position of up to two pebble pairs, and a rank. *)
let gen_certify_case =
  let open QCheck2.Gen in
  let* a, b = gen_pair in
  let elt s = int_range 0 (Structure.size s - 1) in
  let* consts = bool in
  let* ca = elt a in
  let* cb = elt b in
  let a, b =
    if consts then
      (Structure.expand_consts a [ ("c", ca) ], Structure.expand_consts b [ ("c", cb) ])
    else (a, b)
  in
  let* start = list_size (int_range 0 2) (pair (elt a) (elt b)) in
  let* rounds = int_range 0 3 in
  return (a, b, start, rounds)

let prop_certify_matches_oracle =
  QCheck2.Test.make ~count:500
    ~name:"certified EF: a sentence iff the spoiler wins, and it separates"
    gen_certify_case
    (fun (a, b, start, rounds) ->
      let spoiler_wins = not (oracle_ef ~start ~rounds a b) in
      let vars = List.mapi (fun i _ -> Printf.sprintf "x%d" (i + 1)) start in
      let holds s side phi =
        let env =
          List.fold_left2
            (fun e x p -> Eval.bind x (side p) e)
            Eval.empty_env vars start
        in
        Eval.holds (pad (Iso.joint_signature a b) s) phi ~env
      in
      match Ef.certify ~start ~rounds a b with
      | Ef.Gave_up _, _, _ -> QCheck2.Test.fail_report "unbudgeted solve gave up"
      | verdict, None, _ ->
          if spoiler_wins then QCheck2.Test.fail_report "spoiler wins, no sentence"
          else verdict = Ef.Equivalent
      | verdict, Some phi, _ ->
          if not spoiler_wins then
            QCheck2.Test.fail_report "a sentence for a duplicator win"
          else if verdict <> Ef.Distinguished then
            QCheck2.Test.fail_report "a sentence without Distinguished"
          else if Formula.quantifier_rank phi > rounds then
            QCheck2.Test.fail_reportf "rank of %s above %d" (Formula.to_string phi)
              rounds
          else if
            not (List.for_all (fun x -> List.mem x vars) (Formula.free_vars phi))
          then
            QCheck2.Test.fail_reportf "%s has a free variable off the start"
              (Formula.to_string phi)
          else if not (holds a fst phi && not (holds b snd phi)) then
            QCheck2.Test.fail_reportf "%s does not separate" (Formula.to_string phi)
          else true)

(* ---------- Counting game vs k-WL (sound implications only) ---------- *)

(* Unbounded-rank C^k equivalence is exactly (k-1)-WL equivalence, so:
   - the k-pebble counting game distinguishing at ANY rank implies
     (k-1)-WL distinguishes (contrapositive: (k-1)-WL-equivalent pairs
     are game-equivalent at every rank);
   - the game is monotone in rank.
   Both directions of the rank-by-rank correspondence would need a rank
   bound we don't have in closed form, so only these sound one-way
   checks are asserted — they are exactly what makes the game usable as
   a certificate. *)
let prop_counting_vs_kwl =
  QCheck2.Test.make ~count:120 ~name:"counting game vs k-WL implications"
    QCheck2.Gen.(pair gen_pair (int_range 2 3))
    (fun ((a, b), k) ->
      let wl_equiv = Wl.equiv ~k:(k - 1) a b in
      let game r = Counting_game.duplicator_wins ~pebbles:k ~rounds:r a b in
      let g1 = game 1 and g2 = game 2 and g3 = game 3 in
      (* Rank monotonicity: a spoiler win survives extra rounds. *)
      if (not g1) && (g2 || g3) then
        QCheck2.Test.fail_reportf "rank monotonicity broken (k=%d)" k
      else if (not g2) && g3 then
        QCheck2.Test.fail_reportf "rank monotonicity broken at 2->3 (k=%d)" k
      else if wl_equiv && not (g1 && g2 && g3) then
        QCheck2.Test.fail_reportf
          "%d-WL equivalent but C^%d game distinguishes" (k - 1) k
      else true)

(* The same implications on pairs that also carry a nullary relation
   [Z], true or false on each side independently: [Z] is itself a
   C^2 sentence, so 1-WL must see a disagreement on it. *)
let with_nullary holds s =
  Structure.with_rel s "Z" 0
    (if holds then Fmtk_structure.Tuple.Set.singleton [||]
     else Fmtk_structure.Tuple.Set.empty)

let prop_counting_vs_kwl_nullary =
  QCheck2.Test.make ~count:80 ~name:"counting game vs k-WL, nullary relation"
    QCheck2.Gen.(pair (pair gen_pair (pair bool bool)) (int_range 2 3))
    (fun (((a, b), (za, zb)), k) ->
      let a = with_nullary za a and b = with_nullary zb b in
      let wl_equiv = Wl.equiv ~k:(k - 1) a b in
      if za <> zb && wl_equiv then
        QCheck2.Test.fail_reportf "%d-WL blind to a nullary disagreement" (k - 1)
      else if
        wl_equiv
        && not (List.for_all (fun r -> Counting_game.duplicator_wins ~pebbles:k ~rounds:r a b) [ 1; 2; 3 ])
      then
        QCheck2.Test.fail_reportf
          "%d-WL equivalent but C^%d game distinguishes" (k - 1) k
      else true)

(* The smallest such pair: one edge both ways, [P] true on one side
   only. *)
let test_wl_nullary () =
  let sg = Signature.make [ ("E", 2); ("P", 0) ] in
  let edge = ("E", [ [| 0; 1 |]; [| 1; 0 |] ]) in
  let a = Structure.make sg ~size:2 [ edge; ("P", [ [||] ]) ]
  and b = Structure.make sg ~size:2 [ edge; ("P", []) ] in
  checkb "1-WL sees P" false (Wl.equiv ~k:1 a b);
  checkb "2-WL sees P" false (Wl.equiv ~k:2 a b);
  checkb "census_equal1 sees P" false (Wl.census_equal1 a b);
  checkb "equal P stays 1-WL equivalent" true (Wl.equiv ~k:1 a a)

(* The bijective 1-pebble game just compares colour-census-free
   cardinalities each round; sanity-check it against bare sets. *)
let test_counting_sets () =
  checkb "equal sets equivalent" true
    (Counting_game.duplicator_wins ~pebbles:1 ~rounds:5 (Gen.set 4)
       (Gen.set 4));
  checkb "different sizes distinguished at rank 1" false
    (Counting_game.duplicator_wins ~pebbles:1 ~rounds:1 (Gen.set 3)
       (Gen.set 4));
  checkb "rank 0 cannot count" true
    (Counting_game.duplicator_wins ~pebbles:2 ~rounds:0 (Gen.set 3)
       (Gen.set 4))

(* C_6 vs C_3 ⊎ C_3: the classic C^2/C^3 separation. The counting game
   with 2 pebbles never distinguishes them (they are C^2-equivalent);
   with 3 pebbles it does at small rank. *)
let test_counting_cycles () =
  let a = Gen.cycle 6 and b = Gen.union_of [ Gen.cycle 3; Gen.cycle 3 ] in
  checkb "C6 vs C3+C3: 2-pebble counting game blind" true
    (Counting_game.duplicator_wins ~pebbles:2 ~rounds:4 a b);
  checkb "C6 vs C3+C3: 3-pebble counting game sees" false
    (Counting_game.duplicator_wins ~pebbles:3 ~rounds:6 a b);
  checkb "1-WL blind on the pair" true (Wl.equiv ~k:1 a b);
  checkb "2-WL sees the pair" false (Wl.equiv ~k:2 a b)

(* ---------- CFI pairs: the certificate bench E26 regenerates ---------- *)

let test_cfi_certificate () =
  List.iter
    (fun m ->
      let u, t = Gen.cfi_pair m in
      checkb
        (Printf.sprintf "cfi m=%d: same size" m)
        true
        (Structure.size u = Structure.size t);
      checkb
        (Printf.sprintf "cfi m=%d: non-isomorphic" m)
        false (Iso.isomorphic u t);
      (* Untwisted ≅ C_m ⊎ C_m, twisted ≅ C_2m. *)
      checkb
        (Printf.sprintf "cfi m=%d: component counts 2 vs 1" m)
        true
        (Graph.component_count u = 2 && Graph.component_count t = 1);
      checkb
        (Printf.sprintf "cfi m=%d: 1-WL blind" m)
        true (Wl.equiv ~k:1 u t);
      checkb
        (Printf.sprintf "cfi m=%d: 2-WL sees" m)
        false (Wl.equiv ~k:2 u t))
    [ 3; 4; 5 ];
  (* Game-level certificate on the smallest pair: C^2 blind at every
     tested rank, C^3 distinguishes. *)
  let u, t = Gen.cfi_pair 3 in
  checkb "cfi m=3: 2-pebble counting game blind" true
    (Counting_game.duplicator_wins ~pebbles:2 ~rounds:4 u t);
  checkb "cfi m=3: 3-pebble counting game sees" false
    (Counting_game.duplicator_wins ~pebbles:3 ~rounds:8 u t)

(* ---------- Budgets never flip verdicts ---------- *)

let prop_budget_never_flips =
  QCheck2.Test.make ~count:80 ~name:"budgeted runs never flip a verdict"
    QCheck2.Gen.(pair gen_pair (int_range 1 50))
    (fun ((a, b), fuel) ->
      let reference = oracle_ef ~rounds:3 a b in
      let budget = Budget.create ~fuel ~poll_interval:1 () in
      (match Ef.solve_verdict ~budget ~rounds:3 a b with
      | Ef.Equivalent, _ ->
          if not reference then QCheck2.Test.fail_report "EF flipped to equiv"
      | Ef.Distinguished, _ ->
          if reference then QCheck2.Test.fail_report "EF flipped to dist"
      | Ef.Gave_up _, _ -> ());
      let budget = Budget.create ~fuel ~poll_interval:1 () in
      (match Counting_game.solve_verdict ~budget ~pebbles:2 ~rounds:2 a b with
      | Counting_game.Equivalent, _ ->
          if not (Counting_game.duplicator_wins ~pebbles:2 ~rounds:2 a b) then
            QCheck2.Test.fail_report "counting game flipped to equiv"
      | Counting_game.Distinguished, _ ->
          if Counting_game.duplicator_wins ~pebbles:2 ~rounds:2 a b then
            QCheck2.Test.fail_report "counting game flipped to dist"
      | Counting_game.Gave_up _, _ -> ());
      true)

(* ---------- API parity across the engine instances ---------- *)

(* The stats and verdict types of all three instances are equations with
   the kernel's — interchangeable at compile time. *)
let _ : Pebble.verdict -> Ef.verdict = Fun.id
let _ : Counting_game.verdict -> Engine.verdict = Fun.id
let _ : Pebble.stats -> Ef.stats = Fun.id
let _ : Counting_game.stats -> Engine.stats = Fun.id

let test_api_parity () =
  (* Pebble exposes the same budgeted-verdict surface as Ef and reports
     worker counts the same way. *)
  let a = Gen.cycle 5 and b = Gen.cycle 6 in
  let v_ef, (s_ef : Ef.stats) = Ef.solve_verdict ~rounds:2 a b in
  let v_pb, (s_pb : Pebble.stats) =
    Pebble.solve_verdict ~pebbles:2 ~rounds:2 a b
  in
  checkb "both decided" true
    ((match v_ef with Ef.Gave_up _ -> false | _ -> true)
    && match v_pb with Pebble.Gave_up _ -> false | _ -> true);
  checkb "stats populated" true (s_ef.workers >= 1 && s_pb.workers >= 1);
  (* A forced multi-worker pebble solve agrees with the sequential one. *)
  let big = Gen.union_of [ Gen.path 3; Gen.path 3 ] in
  let seq =
    Pebble.duplicator_wins
      ~config:{ Pebble.default_config with workers = Some 1 }
      ~pebbles:2 ~rounds:3 big (Gen.path 6)
  in
  let par =
    Pebble.duplicator_wins
      ~config:{ Pebble.default_config with workers = Some 4 }
      ~pebbles:2 ~rounds:3 big (Gen.path 6)
  in
  checkb "pebble parallel = sequential" seq par;
  (* The kernel's worker policy is shared: forcing workers overrides. *)
  checkb "worker_count honours override" true
    (Engine.worker_count
       { Engine.default_config with workers = Some 5 }
       ~depth_hint:1 ~width:20 ~moves:10
    = 5)

(* ---------- Search sizes on the board ---------- *)

let seq_config orbit = { Ef.default_config with workers = Some 1; orbit }

(* EF is the board's pebble game with a pebble for every round, so no
   position ever lifts one: sequential position counts stay those of the
   E24/E26 trails (BENCH_games.json, BENCH_engine.json), with and
   without orbit pruning. *)
let test_ef_search_unchanged () =
  List.iter
    (fun (name, a, b, rounds, pruned, plain) ->
      List.iter
        (fun (orbit, expected) ->
          let _, (s : Ef.stats) = Ef.solve ~config:(seq_config orbit) ~rounds a b in
          Alcotest.(check int)
            (Printf.sprintf "%s orbit=%b positions" name orbit)
            expected s.positions)
        [ (true, pruned); (false, plain) ])
    [
      ("C12/C13 r3", Gen.cycle 12, Gen.cycle 13, 3, 53, 964);
      ("C16/C16 r3", Gen.cycle 16, Gen.cycle 16, 3, 74, 1695);
      ("C20/C21 r3", Gen.cycle 20, Gen.cycle 21, 3, 101, 2924);
      ("S10/S11 r4", Gen.set 10, Gen.set 11, 4, 7, 3481);
      ("L7/L9 r3", Gen.linear_order 7, Gen.linear_order 9, 3, 585, 585);
    ]

(* The spoiler lifts a pebble only when none is free: lifting while one
   is free reaches only subsets of the positions placing reaches, which
   the duplicator wins whenever she wins the superset. The oracle lifts
   whenever the rules allow it and must agree; the board explores fewer
   positions (100 when every base is tried). *)
let test_lift_only_when_full () =
  let a = Gen.cycle 12 and b = Gen.union_of [ Gen.cycle 6; Gen.cycle 6 ] in
  let v, (s : Pebble.stats) =
    Pebble.solve ~config:(seq_config true) ~pebbles:3 ~rounds:5 a b
  in
  checkb "verdict = oracle" (oracle_pebble ~pebbles:3 ~rounds:5 a b) v;
  checkb (Printf.sprintf "%d positions <= 69" s.positions) true (s.positions <= 69)

(* ---------- Parallel vs sequential: the differential suite ---------- *)

(* The parallel path is a different machine (work-stealing deques, a
   claim-based shared memo, pooled domains) computing the same
   function; these tests pin the agreement down across worker counts,
   orbit pruning, and injected faults. Verdicts must be identical
   everywhere. Position counts are exactly sequential at workers=1
   (the forced fast path) and on fully-equivalent runs at any worker
   count (no conjunct fails, so no speculation is ever cut short and
   the claimed-position set is the sequential explored set). *)

let worker_grid = [ 1; 2; 4; 8 ]

let par_pairs =
  [
    ("L6 vs L8", Gen.linear_order 6, Gen.linear_order 8, false);
    ("L8 vs L8", Gen.linear_order 8, Gen.linear_order 8, true);
    ( "C6 vs C3+C3",
      Gen.cycle 6,
      Gen.union_of [ Gen.cycle 3; Gen.cycle 3 ],
      false );
  ]

let test_parallel_differential () =
  List.iter
    (fun (name, a, b, equivalent) ->
      List.iter
        (fun orbit ->
          let config w =
            { Ef.default_config with workers = Some w; orbit }
          in
          let seq_v, (seq_s : Ef.stats) =
            Ef.solve ~config:(config 1) ~rounds:3 a b
          in
          checkb (name ^ ": sequential verdict") equivalent seq_v;
          List.iter
            (fun w ->
              let tag =
                Printf.sprintf "%s orbit=%b workers=%d" name orbit w
              in
              let v, (s : Ef.stats) = Ef.solve ~config:(config w) ~rounds:3 a b in
              checkb (tag ^ ": verdict identical") seq_v v;
              checkb
                (tag ^ ": effective worker count")
                true
                (s.workers = if w = 1 then 1 else w);
              if w = 1 || equivalent then
                checkb
                  (Printf.sprintf "%s: positions %d = sequential %d" tag
                     s.positions seq_s.positions)
                  true
                  (s.positions = seq_s.positions))
            worker_grid)
        [ true; false ])
    par_pairs;
  (* Same grid, pebble game: a second expand/tasks implementation
     through the same kernel. *)
  let a = Gen.union_of [ Gen.path 3; Gen.path 3 ] and b = Gen.path 6 in
  List.iter
    (fun orbit ->
      let config w = { Pebble.default_config with workers = Some w; orbit } in
      let seq = Pebble.solve ~config:(config 1) ~pebbles:2 ~rounds:3 a b in
      List.iter
        (fun w ->
          let par = Pebble.solve ~config:(config w) ~pebbles:2 ~rounds:3 a b in
          checkb
            (Printf.sprintf "pebble orbit=%b workers=%d: verdict" orbit w)
            (fst seq) (fst par))
        worker_grid)
    [ true; false ]

let test_parallel_fault_injection () =
  let a = Gen.linear_order 8 and b = Gen.linear_order 8 in
  List.iter
    (fun orbit ->
      List.iter
        (fun w ->
          let config = { Ef.default_config with workers = Some w; orbit } in
          let tag = Printf.sprintf "orbit=%b workers=%d" orbit w in
          (* A worker domain dying with an unrelated exception must
             re-raise at the coordinator — never be swallowed, never be
             masked by a secondary budget exhaustion parked by another
             worker. *)
          let budget =
            Budget.create ~inject:Budget.Raise_in_worker ~poll_interval:1 ()
          in
          (match Ef.solve_verdict ~config ~budget ~rounds:3 a b with
          | exception Budget.Injected_fault ->
              checkb (tag ^ ": fault only from spawned workers") true (w > 1)
          | v, _ ->
              if w > 1 then Alcotest.fail (tag ^ ": worker fault swallowed")
              else checkb (tag ^ ": sequential unaffected") true (v = Ef.Equivalent));
          (* The shared memo of a faulted solve dies with it: a clean
             re-solve in the same process (same pooled domains) is
             correct. *)
          checkb
            (tag ^ ": verdict correct after worker death")
            true
            (Ef.duplicator_wins ~config ~rounds:3 a b);
          (* Cancellation mid-search: the answer is the truth or a
             cancelled gave-up, never a flip — and never a wrong
             gave-up reason. *)
          List.iter
            (fun k ->
              let budget = Budget.create ~inject:(Budget.Cancel_at k) () in
              (match Ef.solve_verdict ~config ~budget ~rounds:3 a b with
              | Ef.Gave_up Budget.Cancelled, _ -> ()
              | Ef.Gave_up r, _ ->
                  Alcotest.failf "%s: cancel surfaced as %s" tag
                    (Budget.reason_to_string r)
              | v, _ ->
                  checkb (tag ^ ": no flip under cancellation") true
                    (v = Ef.Equivalent));
              checkb
                (tag ^ ": verdict correct after cancellation")
                true
                (Ef.duplicator_wins ~config ~rounds:3 a b))
            [ 1; 5; 50 ])
        worker_grid)
    [ true; false ]

let test_worker_count_policy () =
  let cfg workers = { Engine.default_config with workers } in
  (* Forcing is no longer clamped by the root frontier: splitting
     regenerates work below the root. *)
  checkb "forced 8 on 2 root moves" true
    (Engine.worker_count (cfg (Some 8)) ~depth_hint:3 ~width:20 ~moves:2 = 8);
  (* ...but one obligation means nothing to hand out, ever. *)
  checkb "single obligation stays sequential" true
    (Engine.worker_count (cfg (Some 8)) ~depth_hint:3 ~width:20 ~moves:1 = 1);
  checkb "depth 0 stays sequential" true
    (Engine.worker_count (cfg (Some 8)) ~depth_hint:0 ~width:20 ~moves:10 = 1);
  checkb "parallel off wins over forcing" true
    (Engine.worker_count
       { (cfg (Some 8)) with parallel = false }
       ~depth_hint:3 ~width:20 ~moves:10
    = 1);
  (* The automatic policy never exceeds the hardware. *)
  checkb "auto caps at the machine" true
    (Engine.worker_count (cfg None) ~depth_hint:3 ~width:20 ~moves:10
    <= min 8 (Domain.recommended_domain_count ()));
  (* A tiny game stays sequential whatever the hardware: the 2-round
     2-pebble game on C_3 vs a 3-element set (6^2 = 36 move sequences,
     2 orbit-pruned root obligations). Forcing still fans it out. *)
  checkb "tiny game stays sequential" true
    (Engine.worker_count (cfg None) ~depth_hint:2 ~width:6 ~moves:2 = 1);
  checkb "tiny game forced" true
    (Engine.worker_count (cfg (Some 2)) ~depth_hint:2 ~width:6 ~moves:2 = 2);
  let _, stats =
    Pebble.solve ~pebbles:2 ~rounds:2 (Gen.cycle 3) (Gen.set 3)
  in
  checkb "tiny pebble solve ran on one worker" true (stats.Pebble.workers = 1);
  (* Games at the floor keep the machine's count: E24's automatic rows
     (C12 vs C13 at 3 rounds, 25^3; S10 vs S11 at 4 rounds, 21^4). *)
  let machine = min 8 (Domain.recommended_domain_count ()) in
  checkb "C12/C13 keeps the machine's count" true
    (Engine.worker_count (cfg None) ~depth_hint:3 ~width:25 ~moves:2 = machine);
  checkb "S10/S11 keeps the machine's count" true
    (Engine.worker_count (cfg None) ~depth_hint:4 ~width:21 ~moves:2 = machine);
  checkb "the floor itself fans out" true
    (Engine.worker_count (cfg None) ~depth_hint:2 ~width:64 ~moves:2 = machine);
  checkb "just below the floor stays sequential" true
    (Engine.worker_count (cfg None) ~depth_hint:2 ~width:63 ~moves:2 = 1)

let qsuite = List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "fmtk_engine"
    [
      ( "differential",
        qsuite
          [
            prop_ef_matches_oracle;
            prop_pebble_matches_oracle;
            prop_counting_matches_oracle;
            prop_games_symmetric;
            prop_certify_matches_oracle;
          ] );
      ( "counting",
        qsuite [ prop_counting_vs_kwl; prop_counting_vs_kwl_nullary ]
        @ [
            Alcotest.test_case "nullary 1-WL" `Quick test_wl_nullary;
            Alcotest.test_case "sets" `Quick test_counting_sets;
            Alcotest.test_case "cycles" `Quick test_counting_cycles;
          ] );
      ("cfi", [ Alcotest.test_case "certificate" `Quick test_cfi_certificate ]);
      ("budget", qsuite [ prop_budget_never_flips ]);
      ( "parallel",
        [
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_differential;
          Alcotest.test_case "fault injection" `Quick
            test_parallel_fault_injection;
          Alcotest.test_case "worker policy" `Quick test_worker_count_policy;
        ] );
      ("parity", [ Alcotest.test_case "api" `Quick test_api_parity ]);
      ( "board",
        [
          Alcotest.test_case "EF search unchanged" `Quick test_ef_search_unchanged;
          Alcotest.test_case "lift only when no pebble is free" `Quick
            test_lift_only_when_full;
        ] );
    ]
