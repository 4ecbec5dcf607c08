(* Tests for Fmtk_structure.Orbit and the orbit-pruned game solvers.

   The load-bearing claim is soundness: pruning spoiler moves and
   duplicator replies to automorphism-orbit representatives never changes
   a game verdict. The differential suite below checks it on a few
   hundred random structure pairs across symmetric, rigid and mixed
   families; the unit tests pin down the orbit partitions of the known
   families the closed-form strategies live on. *)

module Structure = Fmtk_structure.Structure
module Gen = Fmtk_structure.Gen
module Iso = Fmtk_structure.Iso
module Wl = Fmtk_structure.Wl
module Orbit = Fmtk_structure.Orbit
module Ef = Fmtk_games.Ef
module Strategy = Fmtk_games.Strategy
module Pebble = Fmtk_games.Pebble

let checkb msg = Alcotest.check Alcotest.bool msg
let checki msg = Alcotest.check Alcotest.int msg
let orbit_count t = List.length (Orbit.classes t)

(* ---------- Orbit partitions of known families ---------- *)

let test_known_families () =
  (* Directed cycles are vertex-transitive (Aut ⊇ rotations). *)
  List.iter
    (fun n ->
      let t = Orbit.make (Gen.cycle n) in
      checki (Printf.sprintf "C%d: one orbit" n) 1 (orbit_count t);
      checkb (Printf.sprintf "C%d not rigid" n) (n <= 1) (Orbit.rigid t))
    [ 3; 5; 8 ];
  (* Bare sets: Aut = S_n, one orbit. *)
  let s = Orbit.make (Gen.set 6) in
  checki "set 6: one orbit" 1 (orbit_count s);
  (* Linear orders are rigid: n singleton orbits, rigidity fast path. *)
  List.iter
    (fun n ->
      let t = Orbit.make (Gen.linear_order n) in
      checkb (Printf.sprintf "L%d rigid" n) true (Orbit.rigid t);
      checki (Printf.sprintf "L%d: n orbits" n) n (orbit_count t))
    [ 1; 4; 9 ];
  (* Successor chains are rigid too. *)
  checkb "S7 rigid" true (Orbit.rigid (Orbit.make (Gen.successor 7)));
  (* Complete binary trees: orbits are the levels (depth+1 of them). *)
  let bt = Orbit.make (Gen.binary_tree 2) in
  checki "depth-2 binary tree: 3 level orbits" 3 (orbit_count bt);
  let bt3 = Orbit.make (Gen.binary_tree 3) in
  checki "depth-3 binary tree: 4 level orbits" 4 (orbit_count bt3);
  (* Equal cycles in a disjoint union can be swapped: still one orbit.
     Unequal cycles cannot: one orbit per component. *)
  checki "C5 ⊎ C5: one orbit" 1
    (orbit_count (Orbit.make (Gen.union_of [ Gen.cycle 5; Gen.cycle 5 ])));
  checki "C4 ⊎ C6: two orbits" 2
    (orbit_count (Orbit.make (Gen.union_of [ Gen.cycle 4; Gen.cycle 6 ])))

let test_stabilizers () =
  (* Pinning one element of a directed cycle kills all rotations: the
     stabilizer is trivial, every orbit a singleton. *)
  let c8 = Orbit.make (Gen.cycle 8) in
  checkb "C8 stab {0} trivial" true (Orbit.trivial (Orbit.stabilizer c8 [ 0 ]));
  checkb "C8 root not trivial" false (Orbit.trivial (Orbit.root c8));
  (* Sets: the stabilizer of {1,3} has orbits {1}, {3}, {0,2,4}. *)
  let s5 = Orbit.make (Gen.set 5) in
  let st = Orbit.stabilizer s5 [ 1; 3 ] in
  checki "set 5 stab {1,3}: 3 orbits" 3 (List.length (Orbit.reps st));
  let ids = Orbit.orbit_ids st in
  checkb "pinned elements are singletons" true (ids.(1) = 1 && ids.(3) = 3);
  checkb "0,2,4 share an orbit" true (ids.(0) = ids.(2) && ids.(2) = ids.(4));
  (* Incremental refine agrees with the from-scratch stabilizer. *)
  let refined = Orbit.refine s5 (Orbit.refine s5 (Orbit.root s5) [ 1 ]) [ 3 ] in
  checkb "refine = stabilizer" true
    (Orbit.orbit_ids refined = Orbit.orbit_ids st);
  (* Rigid structures: refine is a no-op on the already-trivial partition. *)
  let l6 = Orbit.make (Gen.linear_order 6) in
  checkb "rigid refine stays trivial" true
    (Orbit.trivial (Orbit.refine l6 (Orbit.root l6) [ 2 ]))

(* ---------- Structural invariants on random structures ---------- *)

let random_structure rng =
  let pick = Random.State.int rng 6 in
  let n = 3 + Random.State.int rng 4 in
  match pick with
  | 0 -> Gen.cycle n
  | 1 -> Gen.set n
  | 2 -> Gen.linear_order n
  | 3 -> Gen.union_of [ Gen.cycle n; Gen.cycle (n + Random.State.int rng 2) ]
  | 4 -> Gen.binary_tree 2 (* depth 2: 7 nodes *)
  | _ -> Gen.random_graph ~rng n 0.3

let test_orbits_are_automorphic () =
  (* Witness check: i ~ j implies some automorphism maps i to j — found
     by the same complete search the module uses, but verified here as an
     actual automorphism of the original structure. *)
  let rng = Random.State.make [| 41 |] in
  for trial = 1 to 40 do
    let s = random_structure rng in
    let t = Orbit.make s in
    let ids = Orbit.orbit_ids (Orbit.root t) in
    Array.iteri
      (fun i id ->
        if id <> i then begin
          (* i shares an orbit with its root id: demand a witness. *)
          let pin e = Structure.expand_consts s [ ("__w", e) ] in
          match Iso.find_iso (pin id) (pin i) with
          | None ->
              Alcotest.failf "trial %d: no automorphism witness %d -> %d"
                trial id i
          | Some sigma ->
              checkb "witness is a bijection" true
                (List.sort_uniq compare (Array.to_list sigma)
                = List.init (Structure.size s) Fun.id)
        end)
      ids
  done

let test_orbits_refine_wl () =
  (* Automorphisms preserve WL colours, so orbits refine colour classes. *)
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 60 do
    let s = random_structure rng in
    let t = Orbit.make s in
    let ids = Orbit.orbit_ids (Orbit.root t) in
    let colors = Wl.refine s in
    Array.iteri
      (fun i id ->
        checkb "same orbit, same WL colour" true (colors.(i) = colors.(id)))
      ids
  done

let test_stabilizer_refines_root () =
  let rng = Random.State.make [| 43 |] in
  for _ = 1 to 40 do
    let s = random_structure rng in
    let t = Orbit.make s in
    let n = Structure.size s in
    let pins = [ Random.State.int rng n ] in
    let root_ids = Orbit.orbit_ids (Orbit.root t) in
    let st_ids = Orbit.orbit_ids (Orbit.stabilizer t pins) in
    (* Stabilizer orbits sit inside root orbits, and pins are fixed. *)
    Array.iteri
      (fun i id -> checkb "stab refines root" true (root_ids.(i) = root_ids.(id)))
      st_ids;
    List.iter (fun p -> checki "pin is a singleton" p st_ids.(p)) pins
  done

(* ---------- Differential: orbit pruning never changes verdicts ---------- *)

let test_ef_differential () =
  let rng = Random.State.make [| 4242 |] in
  let disagreements = ref [] in
  for trial = 1 to 240 do
    let a = random_structure rng in
    let b =
      (* Half the time a related structure (same family flavour), else
         independent — related pairs exercise deep games. *)
      if Random.State.bool rng then random_structure rng
      else
        match Random.State.int rng 3 with
        | 0 -> a
        | 1 -> Gen.cycle (Structure.size a)
        | _ -> Gen.set (Structure.size a)
    in
    let rounds = if Structure.size a + Structure.size b > 10 then 2 else 3 in
    let seq orbit =
      { Ef.memo = true; parallel = false; workers = None; orbit }
    in
    let reference = Ef.duplicator_wins ~config:(seq false) ~rounds a b in
    let pruned = Ef.duplicator_wins ~config:(seq true) ~rounds a b in
    if reference <> pruned then disagreements := trial :: !disagreements;
    (* A slice also exercises the parallel work-stealing path with a
       forced fan-out and the shared memo. *)
    if trial mod 8 = 0 then begin
      let par =
        Ef.duplicator_wins
          ~config:{ Ef.memo = true; parallel = true; workers = Some 3; orbit = true }
          ~rounds a b
      in
      if par <> reference then disagreements := trial :: !disagreements
    end
  done;
  checkb
    (Printf.sprintf "EF orbit-pruned = unpruned (disagreements: %s)"
       (String.concat "," (List.map string_of_int !disagreements)))
    true (!disagreements = [])

let test_pebble_differential () =
  let rng = Random.State.make [| 777 |] in
  for _ = 1 to 60 do
    let a = random_structure rng in
    let b = if Random.State.bool rng then a else random_structure rng in
    let k = 2 + Random.State.int rng 1 in
    let rounds = 3 in
    let cfg orbit = { Pebble.default_config with orbit } in
    checkb "pebble orbit-pruned = unpruned"
      (Pebble.duplicator_wins ~config:(cfg false) ~pebbles:k ~rounds a b)
      (Pebble.duplicator_wins ~config:(cfg true) ~pebbles:k ~rounds a b)
  done

let test_strategy_verify_symmetry () =
  (* Symmetry-pruned strategy verification reaches the same conclusion. *)
  let cases =
    [
      ("sets 4/4 r3", Gen.set 4, Gen.set 4, 3);
      ("sets 3/4 r3", Gen.set 3, Gen.set 4, 3);
      ("sets 2/4 r3", Gen.set 2, Gen.set 4, 3);
    ]
  in
  List.iter
    (fun (name, a, b, rounds) ->
      let s = Strategy.sets a b in
      let plain = Strategy.verify ~rounds a b s in
      let pruned = Strategy.verify ~symmetry:true ~rounds a b s in
      checkb name (plain = None) (pruned = None))
    cases;
  (* Cycles: the closed-form strategy wins C_m vs C_k for m,k >= 2^(r+2). *)
  let a = Gen.cycle 16 and b = Gen.cycle 17 in
  let s = Strategy.directed_cycles 16 17 in
  checkb "cycles strategy survives pruned verification" true
    (Strategy.verify ~symmetry:true ~rounds:2 a b s = None);
  (* A deliberately losing strategy must still be caught. *)
  let bad ~rounds_left:_ _ _ _ = 0 in
  checkb "losing strategy still caught under symmetry" false
    (Strategy.verify ~symmetry:true ~rounds:2 (Gen.linear_order 3)
       (Gen.linear_order 4) bad
    = None)

(* ---------- Pruning actually prunes ---------- *)

let test_pruning_reduces_positions () =
  let solve orbit a b rounds =
    snd
      (Ef.solve
         ~config:{ Ef.memo = true; parallel = false; workers = None; orbit }
         ~rounds a b)
  in
  (* Cycles: root branching collapses from 2n moves to 2 orbits. *)
  let a = Gen.cycle 10 and b = Gen.cycle 11 in
  let pruned = solve true a b 3 and plain = solve false a b 3 in
  checkb "cycles: orbit pruning explores strictly fewer positions" true
    (pruned.Ef.positions < plain.Ef.positions);
  (* Rigid structures: identical exploration, pruning is a no-op. *)
  let a = Gen.linear_order 6 and b = Gen.linear_order 7 in
  let pruned = solve true a b 3 and plain = solve false a b 3 in
  checki "rigid: identical position count" plain.Ef.positions
    pruned.Ef.positions

let () =
  Alcotest.run "fmtk_orbit"
    [
      ( "orbits",
        [
          Alcotest.test_case "known families" `Quick test_known_families;
          Alcotest.test_case "stabilizers" `Quick test_stabilizers;
          Alcotest.test_case "automorphism witnesses" `Quick
            test_orbits_are_automorphic;
          Alcotest.test_case "refine WL colours" `Quick test_orbits_refine_wl;
          Alcotest.test_case "stabilizer refines root" `Quick
            test_stabilizer_refines_root;
        ] );
      ( "differential",
        [
          Alcotest.test_case "EF orbit on/off (240 pairs + parallel slice)"
            `Slow test_ef_differential;
          Alcotest.test_case "pebble orbit on/off (60 pairs)" `Slow
            test_pebble_differential;
          Alcotest.test_case "strategy verify symmetry" `Quick
            test_strategy_verify_symmetry;
          Alcotest.test_case "pruning reduces positions" `Quick
            test_pruning_reduces_positions;
        ] );
    ]
