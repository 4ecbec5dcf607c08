(* Resource-governance tests: budget primitives, fault injection,
   differential no-wrong-verdict checks, cross-domain cancellation,
   worker-death hygiene in the parallel EF search, graceful degradation,
   and totality of the two text parsers on a malformed-input corpus.

   Set FMTK_INJECT=1 (as CI does) to scale up the randomized sweeps;
   default counts keep a plain `dune runtest` fast. *)

module Budget = Fmtk_runtime.Budget
module Structure = Fmtk_structure.Structure
module Gen = Fmtk_structure.Gen
module Iso = Fmtk_structure.Iso
module Formula = Fmtk_logic.Formula
module Structure_io = Fmtk_structure.Structure_io
module Parser = Fmtk_logic.Parser
module Ef = Fmtk_games.Ef
module Pebble = Fmtk_games.Pebble
module Strategy = Fmtk_games.Strategy
module Decide = Fmtk.Decide
module Classify = Fmtk.Classify
module Engine = Fmtk_datalog.Engine
module Programs = Fmtk_datalog.Programs
module Eval = Fmtk_eval.Eval
module So_queries = Fmtk_so.So_queries
module Qbf = Fmtk_qbf.Qbf
module Fp_formula = Fmtk_fixpoint.Fp_formula
module Fp_eval = Fmtk_fixpoint.Fp_eval

let checkb msg = Alcotest.check Alcotest.bool msg

let inject_scale = if Sys.getenv_opt "FMTK_INJECT" = Some "1" then 4 else 1

(* ---------- budget primitives ---------- *)

let test_budget_primitives () =
  let u = Budget.unlimited in
  checkb "unlimited flag" true (Budget.is_unlimited u);
  let p = Budget.poller u in
  for _ = 1 to 100_000 do
    Budget.check p
  done;
  checkb "unlimited never exhausts" true (Budget.exhausted u = None);

  (* Fuel: raises within one poll interval of the nominal limit. *)
  let b = Budget.create ~fuel:100 ~poll_interval:10 () in
  let p = Budget.poller b in
  let n = ref 0 in
  (try
     while !n < 1_000 do
       Budget.check p;
       incr n
     done;
     Alcotest.fail "fuel never ran out"
   with Budget.Exhausted Budget.Fuel -> ());
  checkb "fuel stops near the limit" true (!n >= 90 && !n <= 110);
  checkb "exhausted reports fuel" true (Budget.exhausted b = Some Budget.Fuel);

  (* Deadline in the past: first poll raises. *)
  let b = Budget.create ~deadline_in:(-1.0) ~poll_interval:1 () in
  let p = Budget.poller b in
  (match Budget.check p with
  | () -> Alcotest.fail "expired deadline not noticed"
  | exception Budget.Exhausted Budget.Deadline -> ());

  (* Cancellation token, shared and via the convenience setter. *)
  let tok = Budget.Cancel.create () in
  let b = Budget.create ~cancel:tok ~poll_interval:1 () in
  Budget.Cancel.set tok;
  (match Budget.check (Budget.poller b) with
  | () -> Alcotest.fail "cancel not noticed"
  | exception Budget.Exhausted Budget.Cancelled -> ());
  let b = Budget.create ~fuel:1_000_000 ~poll_interval:1 () in
  Budget.cancel b;
  checkb "exhausted reports cancelled" true
    (Budget.exhausted b = Some Budget.Cancelled);

  (* Memo cap. *)
  let b = Budget.create ~memo_cap:10 () in
  checkb "under cap" true (Budget.memo_ok b ~entries:10);
  checkb "over cap" false (Budget.memo_ok b ~entries:11);
  (match Budget.check_memo b ~entries:11 with
  | () -> Alcotest.fail "memo cap not enforced"
  | exception Budget.Exhausted Budget.Memory -> ());

  (* guard converts exhaustion to a result. *)
  let b = Budget.create ~fuel:5 ~poll_interval:1 () in
  let p = Budget.poller b in
  (match
     Budget.guard b (fun () ->
         while true do
           Budget.check p
         done)
   with
  | Ok () -> Alcotest.fail "guard returned Ok on divergence"
  | Error r -> checkb "guard reason" true (r = Budget.Fuel));
  checkb "guard passes values through" true
    (Budget.guard Budget.unlimited (fun () -> 41 + 1) = Ok 42)

(* ---------- derived budgets ---------- *)

let test_budget_sub () =
  (* A child can only narrow: its deadline is clamped by the parent's. *)
  let parent = Budget.create ~deadline_in:(-1.0) () in
  let child = Budget.sub parent ~deadline_in:1000.0 ~poll_interval:1 in
  (match Budget.check (Budget.poller child) with
  | () -> Alcotest.fail "child outlived an expired parent deadline"
  | exception Budget.Exhausted Budget.Deadline -> ());

  (* Requesting more fuel than the parent holds is capped at the
     parent's remaining pool. *)
  let parent = Budget.create ~fuel:100 () in
  let child = Budget.sub parent ~fuel:1_000_000 ~poll_interval:1 in
  let n = ref 0 in
  let p = Budget.poller child in
  (try
     while !n < 10_000 do
       Budget.check p;
       incr n
     done;
     Alcotest.fail "capped child fuel never ran out"
   with Budget.Exhausted Budget.Fuel -> ());
  checkb "child fuel capped by parent" true (!n <= 110);

  (* A child without its own fuel draws from the parent's shared pool:
     burning the child starves the parent. *)
  let parent = Budget.create ~fuel:100 ~poll_interval:1 () in
  let child = Budget.sub parent ~poll_interval:1 in
  let p = Budget.poller child in
  (try
     for _ = 1 to 10_000 do
       Budget.check p
     done;
     Alcotest.fail "shared pool never ran out"
   with Budget.Exhausted Budget.Fuel -> ());
  (match Budget.check (Budget.poller parent) with
  | () -> Alcotest.fail "parent blind to the drained shared pool"
  | exception Budget.Exhausted Budget.Fuel -> ());

  (* The cancellation token is shared both ways. *)
  let tok = Budget.Cancel.create () in
  let parent = Budget.create ~cancel:tok () in
  let child = Budget.sub parent ~deadline_in:60.0 ~poll_interval:1 in
  Budget.cancel parent;
  (match Budget.check (Budget.poller child) with
  | () -> Alcotest.fail "child missed the parent's cancellation"
  | exception Budget.Exhausted Budget.Cancelled -> ());
  checkb "token view agrees" true (Budget.Cancel.is_set tok);

  (* Unlimited propagates only when the child adds no limit of its own;
     any limit makes the child a real budget. *)
  checkb "sub of unlimited stays unlimited" true
    (Budget.is_unlimited (Budget.sub Budget.unlimited));
  checkb "sub with fuel is limited" false
    (Budget.is_unlimited (Budget.sub Budget.unlimited ~fuel:5))

(* ---------- differential: budgets never change answers ---------- *)

let game_pairs =
  [
    ("sets 3/4 r3", Gen.set 3, Gen.set 4, 3);
    ("sets 6/7 r3", Gen.set 6, Gen.set 7, 3);
    ("orders 5/6 r2", Gen.linear_order 5, Gen.linear_order 6, 2);
    ("orders 3/4 r2", Gen.linear_order 3, Gen.linear_order 4, 2);
    ("cycles 5/6 r2", Gen.cycle 5, Gen.cycle 6, 2);
    ("chains 4/5 r2", Gen.successor 4, Gen.successor 5, 2);
    ("complete 3/4 r2", Gen.complete 3, Gen.complete 4, 2);
    ("cycle/chain 5 r2", Gen.cycle 5, Gen.successor 5, 2);
  ]

let random_game_pairs =
  let rng = Random.State.make [| 2025 |] in
  List.init (4 * inject_scale) (fun i ->
      let n = 4 + Random.State.int rng 3 in
      let a = Gen.random_graph ~rng n 0.3 in
      let b = Gen.random_graph ~rng n 0.5 in
      (Printf.sprintf "random pair %d" i, a, b, 2))

let fuels = [ 1; 2; 5; 17; 100; 1_000; 20_000 ]

let test_no_wrong_verdicts () =
  List.iter
    (fun (name, a, b, rounds) ->
      let baseline, _ = Ef.solve_verdict ~rounds a b in
      checkb (name ^ " baseline decided") true (baseline <> Ef.Gave_up Budget.Fuel);
      List.iter
        (fun fuel ->
          let budget = Budget.create ~fuel ~poll_interval:1 () in
          match fst (Ef.solve_verdict ~budget ~rounds a b) with
          | Ef.Gave_up _ -> ()
          | v ->
              checkb
                (Printf.sprintf "%s fuel=%d agrees with baseline" name fuel)
                true (v = baseline))
        fuels)
    (game_pairs @ random_game_pairs)

let test_doubled_budget_never_flips () =
  (* Once decisive, the verdict is the baseline verdict — growing a
     too-small budget can only move Gave_up -> correct, never flip
     Equivalent <-> Distinguished. *)
  List.iter
    (fun (name, a, b, rounds) ->
      let baseline, _ = Ef.solve_verdict ~rounds a b in
      let fuel = ref 1 in
      let decided = ref false in
      while (not !decided) && !fuel < 1 lsl 22 do
        let budget = Budget.create ~fuel:!fuel ~poll_interval:1 () in
        (match fst (Ef.solve_verdict ~budget ~rounds a b) with
        | Ef.Gave_up _ -> ()
        | v ->
            decided := true;
            checkb (name ^ " first decisive verdict is baseline") true
              (v = baseline));
        fuel := !fuel * 2
      done;
      checkb (name ^ " eventually decisive") true !decided)
    game_pairs

let test_unlimited_equals_baseline () =
  List.iter
    (fun (name, a, b, rounds) ->
      let baseline = Ef.duplicator_wins ~rounds a b in
      checkb (name ^ " unlimited = baseline") true
        (Ef.duplicator_wins ~budget:Budget.unlimited ~rounds a b = baseline))
    (game_pairs @ random_game_pairs)

(* ---------- fault injection ---------- *)

let test_exhaust_at_injection () =
  let a = Gen.linear_order 7 and b = Gen.linear_order 8 in
  for k = 1 to 10 * inject_scale do
    let budget = Budget.create ~inject:(Budget.Exhaust_at k) () in
    match fst (Ef.solve_verdict ~budget ~rounds:3 a b) with
    | Ef.Gave_up Budget.Fuel -> ()
    | Ef.Gave_up _ -> Alcotest.fail "wrong gave-up reason"
    | _ -> Alcotest.failf "Exhaust_at %d produced a verdict" k
  done;
  (* The solver stays usable after an injected failure. *)
  checkb "solver usable after injection" true
    (Ef.duplicator_wins ~rounds:3 a b
    = Ef.duplicator_wins ~rounds:3 (Gen.linear_order 7) (Gen.linear_order 8))

let test_cancel_at_injection () =
  let a = Gen.cycle 6 and b = Gen.cycle 7 in
  for k = 1 to 10 * inject_scale do
    let budget = Budget.create ~inject:(Budget.Cancel_at k) () in
    match fst (Ef.solve_verdict ~budget ~rounds:3 a b) with
    | Ef.Gave_up Budget.Cancelled -> ()
    | Ef.Gave_up _ -> Alcotest.fail "wrong gave-up reason"
    | _ -> Alcotest.failf "Cancel_at %d produced a verdict" k
  done

(* Extraction under injected faults and small fuel: [Decide.equiv
   ~extract:true] answers only [Gave_up], a ladder rung, or
   [Distinguished] with no sentence or one that separates the pair at
   the requested rank — never a wrong verdict or a bad sentence. *)
let test_extract_under_injection () =
  let check_outcome name (a, b, rank) baseline (o : Decide.outcome) =
    match o.Decide.verdict with
    | Decide.Gave_up _ ->
        checkb (name ^ ": gave up without an answerer") true
          (o.Decide.answered_by = None)
    | Decide.Equivalent ->
        checkb (name ^ ": Equivalent is true") true (baseline = Ef.Equivalent)
    | Decide.Distinguishable ->
        checkb (name ^ ": Distinguishable implies non-isomorphic") false
          (Iso.isomorphic a b)
    | Decide.Distinguished phi -> (
        checkb (name ^ ": Distinguished is true") true
          (baseline = Ef.Distinguished);
        match phi with
        | None -> ()
        | Some phi ->
            checkb (name ^ ": sentence separates") true
              (Formula.quantifier_rank phi <= rank
              && Formula.free_vars phi = []
              && Eval.sat a phi
              && not (Eval.sat b phi)))
  in
  List.iter
    (fun (pname, a, b, rank) ->
      let baseline, _ = Ef.solve_verdict ~rounds:rank a b in
      let run name budget =
        check_outcome
          (Printf.sprintf "%s %s" pname name)
          (a, b, rank) baseline
          (Decide.equiv ~budget ~extract:true ~rank a b)
      in
      for k = 1 to 10 * inject_scale do
        run
          (Printf.sprintf "Exhaust_at %d" k)
          (Budget.create ~inject:(Budget.Exhaust_at k) ());
        run
          (Printf.sprintf "Cancel_at %d" k)
          (Budget.create ~inject:(Budget.Cancel_at k) ())
      done;
      List.iter
        (fun fuel ->
          run (Printf.sprintf "fuel %d" fuel) (Budget.create ~fuel ~poll_interval:1 ()))
        fuels)
    (game_pairs @ random_game_pairs)

let test_compiled_fixpoint_budget () =
  (* The compiled fixpoint polls once per candidate tuple: an injected
     exhaustion or cancellation, or a small fuel pool, ends the run in
     [Exhausted], never in a verdict. *)
  let g = Gen.random_graph ~rng:(Random.State.make [| 14 |]) 12 0.3 in
  let expect_exhausted name budget =
    match Fp_eval.sat ~budget g Fp_formula.connectivity with
    | verdict -> Alcotest.failf "%s produced the verdict %b" name verdict
    | exception Budget.Exhausted _ -> ()
  in
  for k = 1 to 10 * inject_scale do
    expect_exhausted
      (Printf.sprintf "Exhaust_at %d" k)
      (Budget.create ~inject:(Budget.Exhaust_at k) ());
    expect_exhausted
      (Printf.sprintf "Cancel_at %d" k)
      (Budget.create ~inject:(Budget.Cancel_at k) ())
  done;
  List.iter
    (fun fuel ->
      expect_exhausted
        (Printf.sprintf "fuel %d" fuel)
        (Budget.create ~fuel ~poll_interval:1 ());
      (* A child without its own fuel draws on the parent's pool. *)
      expect_exhausted
        (Printf.sprintf "shared pool of %d" fuel)
        (Budget.sub (Budget.create ~fuel ~poll_interval:1 ()) ~poll_interval:1))
    [ 1; 5; 50 ]

let test_datalog_budget () =
  (* Datalog rule bodies run on Physical, which polls once per row: an
     injected exhaustion or cancellation, or a small fuel pool, ends
     either strategy in [Exhausted], never in a fixpoint. *)
  let db = Engine.Db.of_structure (Gen.successor 8) in
  let expect_exhausted name budget =
    List.iter
      (fun (strategy, eval) ->
        match eval Programs.transitive_closure db with
        | _ -> Alcotest.failf "%s: %s returned a fixpoint" name strategy
        | exception Budget.Exhausted _ -> ())
      [
        ("naive", Engine.naive ~budget);
        ("semi-naive", Engine.seminaive ~budget);
      ]
  in
  for k = 1 to 10 * inject_scale do
    expect_exhausted
      (Printf.sprintf "Exhaust_at %d" k)
      (Budget.create ~inject:(Budget.Exhaust_at k) ());
    expect_exhausted
      (Printf.sprintf "Cancel_at %d" k)
      (Budget.create ~inject:(Budget.Cancel_at k) ())
  done;
  List.iter
    (fun fuel ->
      expect_exhausted
        (Printf.sprintf "fuel %d" fuel)
        (Budget.create ~fuel ~poll_interval:1 ());
      (* A child without its own fuel draws on the parent's pool. *)
      expect_exhausted
        (Printf.sprintf "shared pool of %d" fuel)
        (Budget.sub (Budget.create ~fuel ~poll_interval:1 ()) ~poll_interval:1))
    [ 1; 5; 50 ]

let par_config = { Ef.default_config with parallel = true; workers = Some 4 }

let test_raise_in_worker () =
  (* A worker domain dies with an unrelated exception: the coordinator
     must join every domain and re-raise — no leaked domains, no memo
     poisoning, and the next (clean) solve still answers correctly. *)
  let a = Gen.linear_order 8 and b = Gen.linear_order 8 in
  let expected = Ef.duplicator_wins ~config:par_config ~rounds:3 a b in
  for _ = 1 to 3 * inject_scale do
    let budget =
      Budget.create ~inject:Budget.Raise_in_worker ~poll_interval:1 ()
    in
    (match Ef.solve_verdict ~config:par_config ~budget ~rounds:3 a b with
    | exception Budget.Injected_fault -> ()
    | Ef.Gave_up _, _ ->
        (* Allowed: the injected fault can race with a worker finishing
           the whole search, but the injection poller fires on the 2nd
           poll, so on this workload the fault always wins. *)
        Alcotest.fail "injected fault surfaced as Gave_up"
    | _ -> Alcotest.fail "worker fault swallowed");
    (* Clean rerun, same process: correct answer, fresh memo. *)
    checkb "verdict correct after worker death" true
      (Ef.duplicator_wins ~config:par_config ~rounds:3 a b = expected)
  done

let test_cross_domain_cancellation () =
  (* A search that would run for hours is cancelled from another domain
     and must come back promptly (the poll interval is a few thousand
     hot-path steps, i.e. well under a second). *)
  let a = Gen.linear_order 30 and b = Gen.linear_order 31 in
  let tok = Budget.Cancel.create () in
  let budget = Budget.create ~cancel:tok ~poll_interval:64 () in
  let canceller =
    Domain.spawn (fun () ->
        Unix.sleepf 0.05;
        Budget.Cancel.set tok)
  in
  let t0 = Unix.gettimeofday () in
  let verdict, _ = Ef.solve_verdict ~budget ~rounds:8 a b in
  let elapsed = Unix.gettimeofday () -. t0 in
  Domain.join canceller;
  checkb "cancelled verdict" true (verdict = Ef.Gave_up Budget.Cancelled);
  checkb
    (Printf.sprintf "cancellation is prompt (%.2fs)" elapsed)
    true (elapsed < 10.0)

(* ---------- every engine honours its budget ---------- *)

let expect_exhausted name f =
  match f () with
  | _ -> Alcotest.failf "%s ignored a tiny budget" name
  | exception Budget.Exhausted _ -> ()

let test_engines_honour_budgets () =
  let tiny () = Budget.create ~fuel:3 ~poll_interval:1 () in
  expect_exhausted "Ef.solve" (fun () ->
      Ef.solve ~budget:(tiny ()) ~rounds:3 (Gen.cycle 5) (Gen.cycle 6));
  expect_exhausted "Pebble.duplicator_wins" (fun () ->
      Pebble.duplicator_wins ~budget:(tiny ()) ~pebbles:2 ~rounds:3
        (Gen.cycle 5) (Gen.cycle 6));
  expect_exhausted "Strategy.verify" (fun () ->
      Strategy.verify ~budget:(tiny ()) ~rounds:2 (Gen.linear_order 5)
        (Gen.linear_order 6)
        (Strategy.linear_orders 5 6));
  (match
     Ef.certify ~budget:(tiny ()) ~rounds:2 (Gen.linear_order 2)
       (Gen.linear_order 3)
   with
  | Ef.Gave_up _, None, _ -> ()
  | _ -> Alcotest.fail "Ef.certify ignored a tiny budget");
  expect_exhausted "Iso.find_iso" (fun () ->
      Iso.find_iso ~budget:(tiny ()) (Gen.cycle 7) (Gen.cycle 7));
  expect_exhausted "Iso.canonical" (fun () ->
      Iso.canonical ~budget:(tiny ()) (Gen.complete 8));
  expect_exhausted "Eval.sat (MSO)" (fun () ->
      Eval.sat ~budget:(tiny ()) (Gen.cycle 5) So_queries.connectivity);
  expect_exhausted "Qbf.solve" (fun () ->
      Qbf.solve ~budget:(tiny ()) (Qbf.pigeonhole_valid 2));
  expect_exhausted "Eval.sat (IFP)" (fun () ->
      Eval.sat ~budget:(tiny ()) (Gen.successor 5) Fp_formula.connectivity);
  expect_exhausted "Engine.seminaive" (fun () ->
      Engine.seminaive ~budget:(tiny ()) Programs.transitive_closure
        (Engine.Db.of_structure (Gen.successor 6)));
  expect_exhausted "Engine.naive" (fun () ->
      Engine.naive ~budget:(tiny ()) Programs.transitive_closure
        (Engine.Db.of_structure (Gen.successor 6)));
  (* And with no limits they all agree with the unbudgeted entry points. *)
  let u = Budget.unlimited in
  checkb "pebble unlimited" true
    (Pebble.duplicator_wins ~budget:u ~pebbles:2 ~rounds:3 (Gen.cycle 5)
       (Gen.cycle 6)
    = Pebble.duplicator_wins ~pebbles:2 ~rounds:3 (Gen.cycle 5) (Gen.cycle 6));
  checkb "qbf unlimited" true
    (Qbf.solve ~budget:u (Qbf.pigeonhole_valid 2)
    = Qbf.solve (Qbf.pigeonhole_valid 2));
  checkb "so unlimited" true
    (Eval.sat ~budget:u (Gen.cycle 5) So_queries.connectivity
    = Eval.sat (Gen.cycle 5) So_queries.connectivity);
  checkb "fp unlimited" true
    (Eval.sat ~budget:u (Gen.cycle 5) Fp_formula.connectivity
    = Eval.sat (Gen.cycle 5) Fp_formula.connectivity)

(* ---------- graceful degradation ladder ---------- *)

let test_decide_ladder_sound () =
  (* Budgeted Decide may degrade, but an exact-flavoured verdict must
     match the unlimited baseline: Equivalent / Distinguished are claims
     about the requested rank and cannot be wrong. *)
  List.iter
    (fun (name, a, b, rounds) ->
      let baseline =
        match (Decide.equiv ~rank:rounds a b).Decide.verdict with
        | Decide.Equivalent -> `Equiv
        | Decide.Distinguished _ -> `Dist
        | _ -> Alcotest.fail "unlimited Decide must be exact"
      in
      List.iter
        (fun fuel ->
          let budget = Budget.create ~fuel ~poll_interval:1 () in
          let o = Decide.equiv ~budget ~rank:rounds a b in
          match o.Decide.verdict with
          | Decide.Equivalent ->
              checkb (name ^ " budgeted Equivalent is true") true
                (baseline = `Equiv)
          | Decide.Distinguished _ ->
              checkb (name ^ " budgeted Distinguished is true") true
                (baseline = `Dist)
          | Decide.Distinguishable ->
              (* Sound iff the structures are non-isomorphic. *)
              checkb (name ^ " Distinguishable implies non-isomorphic") false
                (Iso.isomorphic a b)
          | Decide.Gave_up _ ->
              checkb (name ^ " gave up without an answerer") true
                (o.Decide.answered_by = None))
        fuels)
    (game_pairs @ random_game_pairs)

let test_decide_reports_method () =
  (* Exact path. *)
  let o = Decide.equiv ~rank:2 (Gen.linear_order 5) (Gen.linear_order 6) in
  checkb "exact path method" true (o.Decide.answered_by = Some Decide.Exact_game);
  (* Degree-sequence certificate under a starved budget. *)
  let budget = Budget.create ~fuel:1 ~poll_interval:1 () in
  let o = Decide.equiv ~budget ~rank:4 (Gen.cycle 9) (Gen.complete 9) in
  checkb "degraded verdict is a certificate" true
    (o.Decide.verdict = Decide.Distinguishable);
  checkb "certificate names its method" true
    (match o.Decide.answered_by with
    | Some
        ( Decide.Kwl_refinement | Decide.Degree_sequence
        | Decide.Wl_refinement | Decide.Hanf_locality ) ->
        true
    | _ -> false);
  (* Identical structures under a starved budget: no certificate can
     separate them, and none may falsely claim Equivalent. *)
  let budget = Budget.create ~fuel:1 ~poll_interval:1 () in
  let o = Decide.equiv ~budget ~rank:5 (Gen.linear_order 20) (Gen.linear_order 20) in
  (match o.Decide.verdict with
  | Decide.Gave_up _ | Decide.Equivalent -> ()
  | _ -> Alcotest.fail "identical structures separated");
  (* The 2-WL rung catches cycle-cover pairs the older certificates were
     blind to: one 12-cycle vs two 6-cycles match on degrees and 1-WL
     censuses, but C^3 counts paths and separates them. *)
  let budget = Budget.create ~fuel:1 ~poll_interval:1 () in
  let o =
    Decide.equiv ~budget ~rank:3 (Gen.cycle 12)
      (Gen.union_of [ Gen.cycle 6; Gen.cycle 6 ])
  in
  checkb "2-WL rung separates cycle covers" true
    (o.Decide.verdict = Decide.Distinguishable
    && o.Decide.answered_by = Some Decide.Kwl_refinement);
  (* Hanf locality certifies Equivalent at the sound radius: one big
     cycle vs two half-cycles have identical radius-1 censuses (every
     vertex sees a 3-path), so rank-1 equivalence follows even though
     the budget is too small for the game search. Sized past the 2-WL
     rung's guard, which would otherwise answer Distinguishable first —
     on structures this size only the cheap rungs run. *)
  let budget = Budget.create ~fuel:1 ~poll_interval:1 () in
  let o =
    Decide.equiv ~budget ~rank:1 (Gen.cycle 120)
      (Gen.union_of [ Gen.cycle 60; Gen.cycle 60 ])
  in
  checkb "hanf certifies equivalence at rank 1" true
    (o.Decide.verdict = Decide.Equivalent
    && o.Decide.answered_by = Some Decide.Hanf_locality)

let test_ladder_rungs_under_injection () =
  (* Force [Gave_up] out of the exact game with an injected fault and
     check that each certificate rung below it answers — with the method
     it names — and that every answer is sound. [Exhaust_at 1] kills the
     game search on its first poll, before any position is explored, so
     whichever rung answers is doing so on its own. *)
  let inject = Budget.Exhaust_at 1 in
  let decide ~rank a b =
    Decide.equiv ~budget:(Budget.create ~inject ()) ~rank a b
  in
  (* A path of [n] vertices with one extra leaf hanging off vertex
     [attach]: same degree multiset for any interior attach point, but
     1-WL tells the shapes apart. *)
  let caterpillar n attach =
    let spine = List.init (n - 1) (fun i -> [| i; i + 1 |]) in
    Fmtk_structure.Structure.make Fmtk_logic.Signature.graph ~size:(n + 1)
      [ ("E", [| attach; n |] :: spine) ]
  in

  (* Rung 1 — 2-WL (C^3) census, sizes <= 96: one 12-cycle vs two
     6-cycles agree on degrees and 1-WL but differ in C^3. *)
  let o = decide ~rank:3 (Gen.cycle 12) (Gen.union_of [ Gen.cycle 6; Gen.cycle 6 ]) in
  checkb "kwl rung verdict" true (o.Decide.verdict = Decide.Distinguishable);
  checkb "kwl rung method" true (o.Decide.answered_by = Some Decide.Kwl_refinement);

  (* Rung 2 — degree sequence, past the 2-WL size guard: a 100-cycle is
     2-regular, a 100-path has two endpoints. *)
  let o = decide ~rank:3 (Gen.cycle 100) (Gen.path 100) in
  checkb "degree rung verdict" true (o.Decide.verdict = Decide.Distinguishable);
  checkb "degree rung method" true
    (o.Decide.answered_by = Some Decide.Degree_sequence);

  (* Rung 3 — 1-WL census: caterpillars with the leaf near the end vs in
     the middle share the degree multiset but refine apart. *)
  let o = decide ~rank:3 (caterpillar 100 2) (caterpillar 100 50) in
  checkb "wl rung verdict" true (o.Decide.verdict = Decide.Distinguishable);
  checkb "wl rung method" true (o.Decide.answered_by = Some Decide.Wl_refinement);

  (* Rung 4 — Hanf locality, both directions. Equivalent: every vertex
     of one 120-cycle and of two 60-cycles sees the same radius-4 ball
     (a 9-path), so rank-2 equivalence follows by Hanf's theorem.
     Distinguishable: a 103-cycle vs a 100-cycle plus a triangle — the
     triangle's radius-1 ball (3 vertices, 3 edges) appears nowhere in
     the big cycle. Both pairs are 2-regular and size-matched, so every
     earlier rung passes through. *)
  let o = decide ~rank:2 (Gen.cycle 120) (Gen.union_of [ Gen.cycle 60; Gen.cycle 60 ]) in
  checkb "hanf equivalent verdict" true (o.Decide.verdict = Decide.Equivalent);
  checkb "hanf equivalent method" true
    (o.Decide.answered_by = Some Decide.Hanf_locality);
  let o = decide ~rank:1 (Gen.cycle 103) (Gen.union_of [ Gen.cycle 100; Gen.cycle 3 ]) in
  checkb "hanf distinguishable verdict" true
    (o.Decide.verdict = Decide.Distinguishable);
  checkb "hanf distinguishable method" true
    (o.Decide.answered_by = Some Decide.Hanf_locality);

  (* Past every rung — identical large structures at a rank whose Hanf
     radius is out of range: an honest Gave_up with no claimed method. *)
  let o = decide ~rank:3 (Gen.cycle 100) (Gen.cycle 100) in
  (match o.Decide.verdict with
  | Decide.Gave_up _ -> checkb "gave-up names no method" true (o.Decide.answered_by = None)
  | _ -> Alcotest.fail "rungless pair did not give up");

  (* Soundness spot-check: the injected Distinguishable certificates all
     name non-isomorphic pairs. *)
  checkb "kwl certificate sound" false
    (Iso.isomorphic (Gen.cycle 12) (Gen.union_of [ Gen.cycle 6; Gen.cycle 6 ]));
  checkb "wl certificate sound" false
    (Iso.isomorphic (caterpillar 100 2) (caterpillar 100 50))

let test_classify_degrades () =
  let ts =
    [ Gen.set 4; Gen.set 5; Gen.complete 4; Gen.cycle 4; Gen.cycle 5 ]
  in
  let exact = Classify.by_rank ~rank:2 ts in
  let p = Classify.by_rank_budgeted ~rank:2 ts in
  checkb "unlimited partition is exact" true p.Classify.exact;
  checkb "unlimited partition agrees" true (p.Classify.classes = exact);
  let budget = Budget.create ~fuel:2 ~poll_interval:1 () in
  let p = Classify.by_rank_budgeted ~budget ~rank:2 ts in
  checkb "starved partition is approximate" false p.Classify.exact;
  checkb "starved partition reports reason" true (p.Classify.gave_up <> None);
  checkb "partition covers all structures" true
    (Array.length p.Classify.classes = List.length ts)

(* ---------- parser totality: malformed-input corpus ---------- *)

let malformed_formulas =
  [
    "";
    "(";
    ")";
    "()";
    "((x = y)";
    "x = y)";
    "forall";
    "forall .";
    "forall x";
    "forall x x";
    "exists x.";
    "exists . x = x";
    "x";
    "x =";
    "= x";
    "x == y";
    "E(";
    "E(x";
    "E(x,";
    "E(x,y";
    "E(x y)";
    "E(,)";
    "E()";
    "x <";
    "< x";
    "!";
    "!!";
    "~";
    "&";
    "x = y &";
    "| x = y";
    "x = y | |";
    "->";
    "x = y ->";
    "-";
    "x - y";
    "<->";
    "x = y <-> ";
    "'";
    "''";
    "'a";
    "' = x";
    "x = 'a'";
    "@";
    "#foo";
    "\xff\xfe";
    "x = y extra";
    "forall x. ";
    "true true";
    "E(x,y) E(y,x)";
    "exists x y";
  ]

let valid_formula_text = "forall x. exists y. (E(x,y) & !(x = y)) -> x < y"

let random_garbage rng n =
  List.init n (fun _ ->
      String.init
        (1 + Random.State.int rng 30)
        (fun _ -> Char.chr (Random.State.int rng 256)))

let test_parser_corpus () =
  let rng = Random.State.make [| 7 |] in
  let total = ref 0 in
  let run_total s =
    incr total;
    match Parser.parse s with Ok _ | Error _ -> ()
  in
  (* Known-malformed inputs: Error, with a 1-based position in it. *)
  List.iter
    (fun s ->
      incr total;
      match Parser.parse s with
      | Ok _ -> Alcotest.failf "parsed malformed %S" s
      | Error msg ->
          checkb
            (Printf.sprintf "%S error is positioned: %s" s msg)
            true
            (String.length msg > 0
            && (let has sub =
                  let n = String.length msg and m = String.length sub in
                  let rec go i =
                    i + m <= n && (String.sub msg i m = sub || go (i + 1))
                  in
                  go 0
                in
                has "line"))
    )
    malformed_formulas;
  (* Every prefix of a valid formula: total, no exceptions. *)
  for i = 0 to String.length valid_formula_text - 1 do
    run_total (String.sub valid_formula_text 0 i)
  done;
  (* Random garbage, including non-ASCII bytes: total. *)
  List.iter run_total (random_garbage rng (100 * inject_scale));
  (* Pathological nesting: bounded recursion, clean error. *)
  let deep n = String.make n '(' ^ "x = x" ^ String.make n ')' in
  (match Parser.parse (deep 3_000) with
  | Ok _ -> Alcotest.fail "over-deep nesting accepted"
  | Error msg -> checkb "depth error mentions nesting" true
      (String.length msg > 0));
  incr total;
  checkb "moderate nesting still parses" true
    (match Parser.parse (deep 50) with Ok _ -> true | Error _ -> false);
  incr total;
  checkb "corpus has at least 200 cases" true (!total >= 200)

let malformed_structures =
  [
    "";
    "domain";
    "domain x";
    "domain -1";
    "domain 99999999999999999999999999";
    "domain 3\ndomain x";
    "rel E/2 = (0,1)";
    "domain 3\nrel";
    "domain 3\nrel E = (0,1)";
    "domain 3\nrel E/x = (0,1)";
    "domain 3\nrel E/-1 = (0,1)";
    "domain 3\nrel E/2 = 0,1";
    "domain 3\nrel E/2 = (0,1,2)";
    "domain 3\nrel E/2 = (a,b)";
    "domain 3\nrel E/2 = (0,1) (0)";
    "domain 3\nrel E/2 = ()";
    "domain 2\nrel E/1 = (5)";
    "domain 3\nconst";
    "domain 3\nconst a";
    "domain 3\nconst a =";
    "domain 3\nconst a = x";
    "domain 3\nconst a = 99";
    "domain 3\njunk here";
    "foo bar";
    "domain 3\nrel E/2 = (0,1)\nwat";
  ]

let test_structure_io_corpus () =
  let rng = Random.State.make [| 11 |] in
  let total = ref 0 in
  let run_total s =
    incr total;
    match Structure_io.parse s with Ok _ | Error _ -> ()
  in
  List.iter
    (fun s ->
      incr total;
      match Structure_io.parse s with
      | Ok _ -> Alcotest.failf "parsed malformed structure %S" s
      | Error msg -> checkb "structure error nonempty" true (String.length msg > 0))
    malformed_structures;
  (* Line numbers on per-line failures. *)
  (match Structure_io.parse "domain 3\nrel E/2 = (0,1)\nwat" with
  | Error msg ->
      checkb ("line number in: " ^ msg) true
        (let n = String.length msg in
         let rec go i =
           i + 6 <= n && (String.sub msg i 6 = "line 3" || go (i + 1))
         in
         go 0)
  | Ok _ -> Alcotest.fail "junk line accepted");
  (* Truncations of a valid document: total. *)
  let valid =
    Structure_io.to_string (Gen.cycle 5)
    ^ "# comment\nconst c = 0\n"
  in
  (match Structure_io.parse valid with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid doc rejected: %s" e);
  for i = 0 to String.length valid - 1 do
    run_total (String.sub valid 0 i)
  done;
  List.iter run_total (random_garbage rng (60 * inject_scale));
  (* Round-trip still works after the hardening. *)
  let s = Gen.grid 3 4 in
  (match Structure_io.parse (Structure_io.to_string s) with
  | Ok s' -> checkb "round-trip size" true (Structure.size s' = Structure.size s)
  | Error e -> Alcotest.failf "round-trip failed: %s" e);
  checkb "structure corpus is substantial" true (!total >= 80)

(* ---------- the shared domain pool and the work-stealing deque ---------- *)

module Pool = Fmtk_runtime.Pool
module Deque = Fmtk_runtime.Deque

let test_pool_spawn_join () =
  let pool = Pool.create () in
  let n = 8 in
  let results = Array.make n 0 in
  let handles =
    Array.init n (fun i -> Pool.spawn pool (fun () -> results.(i) <- i * i))
  in
  Array.iter Pool.join handles;
  checkb "all jobs ran" true
    (Array.to_list results = List.init n (fun i -> i * i));
  (* Escaped exceptions surface at the join, not anywhere else. *)
  let h = Pool.spawn pool (fun () -> failwith "boom") in
  (match Pool.join h with
  | exception Failure m -> checkb "exception carried" true (m = "boom")
  | () -> Alcotest.fail "exception swallowed by join");
  (* The pool survives a failed job. *)
  let h = Pool.spawn pool (fun () -> ()) in
  Pool.join h;
  Pool.shutdown pool

let test_pool_reuse () =
  (* An hour's grace: no scheduler delay can expire the parked domain
     between two cycles. *)
  let pool = Pool.create ~idle_grace:3600. () in
  (* [join] returns when the job finishes; the domain parks a moment
     later. Wait for it (ten seconds at most) before the next spawn, or
     that spawn finds the park empty and creates a domain. *)
  let await_park () =
    let deadline = Unix.gettimeofday () +. 10. in
    let rec wait () =
      Pool.parked_count pool >= 1
      || (Unix.gettimeofday () < deadline && (Pool.nap (); wait ()))
    in
    wait ()
  in
  (* Sequential spawn/join cycles must park and reuse one domain, not
     create one per job — this is the pool's entire reason to exist. *)
  for _ = 1 to 20 do
    Pool.join (Pool.spawn pool (fun () -> ()));
    checkb "idle domain parked" true (await_park ())
  done;
  checkb "20 jobs dispatched" true (Pool.dispatched pool = 20);
  Alcotest.(check int) "one domain spawned, then reused" 1
    (Pool.spawned_total pool);
  Pool.shutdown pool;
  checkb "shutdown empties the park" true (Pool.parked_count pool = 0);
  (match Pool.spawn pool (fun () -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "spawn on a shut pool must raise")

let test_pool_shutdown_with_busy_job () =
  (* A domain busy when [shutdown] runs finishes its job and its handle
     stays joinable — shutdown never strands or kills work. *)
  let pool = Pool.create () in
  let gate = Atomic.make false in
  let done_ = Atomic.make false in
  let h =
    Pool.spawn pool (fun () ->
        while not (Atomic.get gate) do
          Pool.nap ()
        done;
        Atomic.set done_ true)
  in
  Pool.shutdown pool;
  Atomic.set gate true;
  Pool.join h;
  checkb "busy job completed across shutdown" true (Atomic.get done_)

let test_deque_owner_order () =
  let q = Deque.create ~capacity:8 () in
  for i = 1 to 8 do
    checkb "push fits" true (Deque.push q i)
  done;
  checkb "full deque rejects" false (Deque.push q 9);
  (* Owner pops LIFO (the deep, hot end)... *)
  checkb "pop is LIFO" true (Deque.pop q = Some 8);
  (* ...thieves steal FIFO (the shallow, big-subtree end). *)
  checkb "steal is FIFO" true (Deque.steal q = Some 1);
  checkb "steal advances" true (Deque.steal q = Some 2);
  checkb "size tracks" true (Deque.size q = 5);
  for _ = 1 to 5 do
    ignore (Deque.pop q)
  done;
  checkb "empty pop" true (Deque.pop q = None);
  checkb "empty steal" true (Deque.steal q = None)

let test_deque_steal_stress () =
  (* Owner pops while thieves steal: every pushed element is consumed
     exactly once — the Chase–Lev top CAS arbitrates the last-element
     race. Sums, not sets, so lost and duplicated elements both show. *)
  let n = 2000 and thieves = 3 in
  let q = Deque.create ~capacity:4096 () in
  let stolen = Array.make thieves 0 in
  let live = Atomic.make true in
  let doms =
    Array.init thieves (fun i ->
        Domain.spawn (fun () ->
            while Atomic.get live do
              match Deque.steal q with
              | Some v -> stolen.(i) <- stolen.(i) + v
              | None -> Domain.cpu_relax ()
            done))
  in
  let popped = ref 0 in
  for v = 1 to n do
    if Deque.push q v then begin
      (* Pop roughly half from the owner end, racing the thieves. *)
      if v land 1 = 0 then
        match Deque.pop q with
        | Some x -> popped := !popped + x
        | None -> ()
    end
    else popped := !popped + v (* full: consume inline, like the engine *)
  done;
  let rec drain () =
    match Deque.pop q with
    | Some x ->
        popped := !popped + x;
        drain ()
    | None -> if Deque.size q > 0 then drain ()
  in
  drain ();
  Atomic.set live false;
  Array.iter Domain.join doms;
  let total = Array.fold_left ( + ) !popped stolen in
  checkb "every element consumed exactly once" true
    (total = n * (n + 1) / 2)

let () =
  Alcotest.run "fmtk_runtime"
    [
      ( "budget",
        [
          Alcotest.test_case "primitives" `Quick test_budget_primitives;
          Alcotest.test_case "sub-budgets" `Quick test_budget_sub;
          Alcotest.test_case "engines honour budgets" `Quick
            test_engines_honour_budgets;
        ] );
      ( "differential",
        [
          Alcotest.test_case "no wrong verdicts" `Slow test_no_wrong_verdicts;
          Alcotest.test_case "doubling never flips" `Slow
            test_doubled_budget_never_flips;
          Alcotest.test_case "unlimited = baseline" `Quick
            test_unlimited_equals_baseline;
        ] );
      ( "injection",
        [
          Alcotest.test_case "exhaust_at" `Quick test_exhaust_at_injection;
          Alcotest.test_case "cancel_at" `Quick test_cancel_at_injection;
          Alcotest.test_case "decide extract" `Quick
            test_extract_under_injection;
          Alcotest.test_case "compiled fixpoint" `Quick
            test_compiled_fixpoint_budget;
          Alcotest.test_case "datalog" `Quick test_datalog_budget;
          Alcotest.test_case "raise in worker" `Quick test_raise_in_worker;
          Alcotest.test_case "cross-domain cancel" `Slow
            test_cross_domain_cancellation;
        ] );
      ( "degradation",
        [
          Alcotest.test_case "decide ladder sound" `Slow test_decide_ladder_sound;
          Alcotest.test_case "decide reports method" `Quick
            test_decide_reports_method;
          Alcotest.test_case "ladder rungs under injection" `Quick
            test_ladder_rungs_under_injection;
          Alcotest.test_case "classify degrades" `Quick test_classify_degrades;
        ] );
      ( "pool",
        [
          Alcotest.test_case "spawn/join" `Quick test_pool_spawn_join;
          Alcotest.test_case "reuse" `Quick test_pool_reuse;
          Alcotest.test_case "shutdown with busy job" `Quick
            test_pool_shutdown_with_busy_job;
          Alcotest.test_case "deque owner order" `Quick test_deque_owner_order;
          Alcotest.test_case "deque steal stress" `Quick
            test_deque_steal_stress;
        ] );
      ( "parser-totality",
        [
          Alcotest.test_case "formula corpus" `Quick test_parser_corpus;
          Alcotest.test_case "structure corpus" `Quick test_structure_io_corpus;
        ] );
    ]
