(* lib_batch: in-process passes over a fixed list of library jobs, all
   sequential ([workers = 1]) and budgeted by fuel where a budget decides
   the answer, never by a deadline. The jobs fall into four families of
   comparable cost per pass — fixpoint, fo_query, game, locality — which
   the serve workloads cannot reach. Every job checks its answer against
   an expectation computed here from the generated input (closed forms,
   {!Model} counts, or known verdicts). *)

module Structure = Fmtk_structure.Structure
module Gen = Fmtk_structure.Gen
module Tuple = Fmtk_structure.Tuple
module Wl = Fmtk_structure.Wl
module Parser = Fmtk_logic.Parser
module Fp = Fmtk_fixpoint.Fp_formula
module Fp_eval = Fmtk_fixpoint.Fp_eval
module Engine = Fmtk_datalog.Engine
module Programs = Fmtk_datalog.Programs
module Compiled = Fmtk_eval.Compiled
module Compile = Fmtk_db.Compile
module Algebra = Fmtk_db.Algebra
module Planner = Fmtk_db.Planner
module Physical = Fmtk_db.Physical
module Relation = Fmtk_db.Relation
module Counting = Fmtk_counting.Counting
module Ef = Fmtk_games.Ef
module Pebble = Fmtk_games.Pebble
module Counting_game = Fmtk_games.Counting_game
module Decide = Fmtk.Decide
module Budget = Fmtk_runtime.Budget
module Neighborhood = Fmtk_locality.Neighborhood

type family = Fixpoint | Fo_query | Game | Locality

let families = [ Fixpoint; Fo_query; Game; Locality ]

let family_name = function
  | Fixpoint -> "fixpoint"
  | Fo_query -> "fo_query"
  | Game -> "game"
  | Locality -> "locality"

(* Work counters, summed over a pass. *)
type counters = {
  mutable stages : int;
  mutable tuples_tested : int;
  mutable iterations : int;
  mutable join_work : int;
  mutable positions : int;
  mutable iso_tests : int;
  mutable serial_hits : int;
  mutable censused : int;
  mutable decides : int;
  mutable exact : int;
}

let counters () =
  { stages = 0; tuples_tested = 0; iterations = 0; join_work = 0; positions = 0;
    iso_tests = 0; serial_hits = 0; censused = 0; decides = 0; exact = 0 }

(* [sp.f name call] runs one call into a layer, under a span when the
   pass is traced. *)
type span = { f : 'a. string -> (unit -> 'a) -> 'a }

type job = { name : string; family : family; run : span -> counters -> unit }

let expect_count ~job expected got =
  if got <> expected then Util.wrong "%s: expected %d answers, got %d" job expected got

(* ---- inputs ---- *)

let random_graph ~seed ~salt n avg_degree =
  Gen.random_graph
    ~rng:(Random.State.make [| seed; salt |])
    n (avg_degree /. float_of_int (n - 1))

(* The first typical graph ({!Model.typical}) drawn with generator seeds
   [seed; salt; j], j = 0, 1, ... Used for the slowest job, whose cost
   would otherwise move the tail from one seed to the next. *)
let typical_graph ~seed ~salt n avg_degree =
  let p = avg_degree /. float_of_int (n - 1) in
  let rec go j =
    let g = Gen.random_graph ~rng:(Random.State.make [| seed; salt; j |]) n p in
    if j = 999 || Model.typical (Model.of_structure g "E") p then g else go (j + 1)
  in
  go 0

(* Radius-1 census expected on a symmetric graph: a ball is the centre
   joined to its neighbours, so its isomorphism type is fixed by the
   graph its neighbours induce, and for at most four neighbours that
   graph is fixed up to isomorphism by its degree sequence. Returns the
   sorted list of type sizes. *)
let expected_census s =
  let n = Structure.size s in
  let adj = Array.make n [] in
  Structure.iter_rel2 s "E" (fun u v ->
      if u <> v && not (List.mem v adj.(u)) then adj.(u) <- v :: adj.(u));
  let tbl = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    let nb = Array.of_list adj.(v) in
    if Array.length nb > 4 then invalid_arg "expected_census: degree above 4";
    let deg =
      Array.map
        (fun a -> Array.fold_left (fun k b -> if List.mem b adj.(a) then k + 1 else k) 0 nb)
        nb
    in
    Array.sort compare deg;
    let key = Array.to_list deg in
    Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)
  done;
  List.sort compare (Hashtbl.fold (fun _ c acc -> c :: acc) tbl [])

let equiv = function Ef.Equivalent -> true | _ -> false

let make_jobs ~seed =
  (* fixpoint *)
  let chain_n = 28 in
  let chain = Gen.successor chain_n in
  let conn = random_graph ~seed ~salt:1 70 6. in
  let conn_expected =
    let g = Model.of_structure conn "E" in
    let seen = Array.make g.Model.n false in
    let rec visit u =
      if not seen.(u) then begin
        seen.(u) <- true;
        Hashtbl.iter (fun v () -> visit v) g.Model.out_.(u);
        Hashtbl.iter (fun v () -> visit v) g.Model.in_.(u)
      end
    in
    visit 0;
    Array.for_all Fun.id seen
  in
  let dl_n = 140 in
  let dl_chain = Engine.Db.of_structure (Gen.successor dl_n) in
  let depth = 4 in
  let tree = Engine.Db.of_structure (Gen.binary_tree depth) in
  (* fo_query *)
  let reach_g = typical_graph ~seed ~salt:2 200 4. in
  let reach_phi = Parser.parse_exn "exists z. (E(x,z) & E(z,y))" in
  let reach_expected = Model.reach2 (Model.of_structure reach_g "E") in
  let plan_g = random_graph ~seed ~salt:3 800 3. in
  let pm = Model.of_structure plan_g "E" in
  let path3 =
    let t = ref 0 in
    for y = 0 to pm.Model.n - 1 do
      Hashtbl.iter (fun z () -> t := !t + (Model.indeg pm y * Model.outdeg pm z)) pm.Model.out_.(y)
    done;
    !t
  in
  let planned =
    [
      ("misordered-3path", "E(x,y) & E(z,w) & E(y,z)", path3);
      ("neq-join", "E(x,y) & E(y,z) & x != z", pm.Model.paths2 - pm.Model.mutual);
      ("guarded-neg", "E(x,y) & !E(y,x)", pm.Model.edges - pm.Model.mutual);
    ]
  in
  (* far fewer than 500 vertices have out-degree >= 12, so every
     evaluation scans the whole domain and its cost does not depend on
     the seed *)
  let count_g = random_graph ~seed ~salt:4 1000 8. in
  let count_k, count_j = (500, 12) in
  let count_expected =
    let g = Model.of_structure count_g "E" in
    let k = ref 0 in
    for x = 0 to g.Model.n - 1 do
      if Model.outdeg g x >= count_j then incr k
    done;
    !k >= count_k
  in
  (* game *)
  let seq = { Ef.default_config with parallel = false; workers = Some 1 } in
  let seq_pebble = { Pebble.default_config with parallel = false; workers = Some 1 } in
  let seq_counting = { Counting_game.default_config with parallel = false; workers = Some 1 } in
  let l5, l6, l10, l11, l15, l16 =
    Gen.(linear_order 5, linear_order 6, linear_order 10, linear_order 11,
         linear_order 15, linear_order 16)
  in
  let c12 = Gen.cycle 12 and two_c6 = Gen.union_of [ Gen.cycle 6; Gen.cycle 6 ] in
  let cfi, cfi_twisted = Gen.cfi_pair 3 in
  let fuel f = Budget.create ~fuel:f ~poll_interval:(max 1 (min 256 (f / 10))) () in
  (* locality *)
  let torus = Gen.torus 316 316 in
  let regular = Gen.random_regular ~rng:(Random.State.make [| seed; 5 |]) 100_000 4 in
  let census_torus = expected_census torus and census_regular = expected_census regular in
  let job family name run = { name; family; run } in
  let solved ~job want (v, (st : Fmtk_games.Engine.stats)) c =
    c.positions <- c.positions + st.positions;
    match v with
    | Fmtk_games.Engine.Gave_up _ -> failwith (job ^ ": gave up")
    | v -> if equiv v <> want then Util.wrong "%s: wrong verdict" job
  in
  let decide ~job ~budget ~rank a b ~truth sp c =
    let o = sp.f "Decide.equiv" (fun () -> Decide.equiv ~config:seq ~budget:(budget ()) ~rank a b) in
    c.decides <- c.decides + 1;
    if o.Decide.answered_by = Some Decide.Exact_game then c.exact <- c.exact + 1;
    match (o.Decide.verdict, truth) with
    | Decide.Gave_up _, _ -> failwith (job ^ ": gave up")
    | Decide.Equivalent, false | Decide.Distinguished _, true ->
        Util.wrong "%s: unsound verdict" job
    | _ -> ()
  in
  let census ~job g expected sp c =
    let reg = Neighborhood.create_registry () in
    let r = sp.f "Neighborhood.census" (fun () -> Neighborhood.census ~workers:1 reg g ~radius:1) in
    c.iso_tests <- c.iso_tests + Neighborhood.iso_tests reg;
    c.serial_hits <- c.serial_hits + Neighborhood.serial_hits reg;
    c.censused <- c.censused + Structure.size g;
    if List.sort compare (List.map snd r) <> expected then
      Util.wrong "%s: census differs from the expected type sizes" job
  in
  let refine ~job g sp _ =
    let colours = sp.f "Wl.refine" (fun () -> Wl.refine ~workers:1 g) in
    if Array.exists (( <> ) colours.(0)) colours then
      Util.wrong "%s: a regular graph refined to more than one colour" job
  in
  let fp_stats c (stats : Fp_eval.stats) =
    c.stages <- c.stages + stats.stages;
    c.tuples_tested <- c.tuples_tested + stats.tuples_tested
  in
  let datalog ~job program db pred expected sp c =
    let r, (st : Engine.stats) = sp.f "Engine.seminaive" (fun () -> Engine.seminaive program db) in
    c.iterations <- c.iterations + st.iterations;
    c.join_work <- c.join_work + st.join_work;
    expect_count ~job expected (Tuple.Set.cardinal (Engine.Db.find r pred))
  in
  (* Compile.answers, one layer call at a time *)
  let planned_job (name, text, expected) =
    let phi = Parser.parse_exn text in
    job Fo_query name (fun sp _ ->
        if not (sp.f "Compile.safe_range" (fun () -> Compile.safe_range phi)) then
          failwith (name ^ ": not safe-range");
        let db = sp.f "Database.of_structure" (fun () -> Algebra.Database.of_structure plan_g) in
        let e =
          sp.f "Compile.compile" (fun () ->
              Algebra.Project (Fmtk_logic.Formula.free_vars phi, Compile.compile phi))
        in
        match sp.f "Planner.plan" (fun () -> Planner.plan db e) with
        | Error m -> failwith m
        | Ok plan -> (
            match sp.f "Physical.run" (fun () -> Physical.run db plan) with
            | Ok rel -> expect_count ~job:name expected (Relation.cardinality rel)
            | Error m -> failwith m))
  in
  [
    job Fixpoint "fp_tc_chain" (fun sp c ->
        let stats = Fp_eval.new_stats () in
        let r =
          sp.f "Fp_eval.answers" (fun () ->
              Fp_eval.answers ~stats chain Fp.transitive_closure ~vars:[ "u"; "v" ])
        in
        fp_stats c stats;
        expect_count ~job:"fp_tc_chain" (chain_n * (chain_n - 1) / 2) (Tuple.Set.cardinal r));
    job Fixpoint "fp_conn_random" (fun sp c ->
        let stats = Fp_eval.new_stats () in
        let r = sp.f "Fp_eval.sat" (fun () -> Fp_eval.sat ~stats conn Fp.connectivity) in
        fp_stats c stats;
        if r <> conn_expected then Util.wrong "fp_conn_random: wrong connectivity");
    job Fixpoint "dl_tc_chain"
      (datalog ~job:"dl_tc_chain" Programs.transitive_closure dl_chain "tc" (dl_n * (dl_n - 1) / 2));
    (* same generation in a complete binary tree: the pairs on one level *)
    job Fixpoint "dl_sg_tree"
      (datalog ~job:"dl_sg_tree" Programs.same_generation tree "sg"
         (List.fold_left ( + ) 0 (List.init (depth + 1) (fun l -> 1 lsl (2 * l)))));
    job Fo_query "compiled_reach2" (fun sp _ ->
        let _, r = sp.f "Compiled.answers" (fun () -> Compiled.answers reach_g reach_phi) in
        expect_count ~job:"compiled_reach2" reach_expected (Tuple.Set.cardinal r));
  ]
  @ List.map planned_job planned
  @ [
      job Fo_query "counting_degrees" (fun sp _ ->
          let r =
            sp.f "Counting.sat" (fun () ->
                Counting.sat count_g
                  (Counting.Count_geq (count_k, "x", Counting.min_out_degree count_j)))
          in
          if r <> count_expected then Util.wrong "counting_degrees: wrong value");
      (* L_m and L_n agree up to rank k iff m = n or both are >= 2^k - 1 *)
      job Game "ef_orders_equiv" (fun sp c ->
          solved ~job:"ef_orders_equiv" true
            (sp.f "Ef.solve_verdict" (fun () -> Ef.solve_verdict ~config:seq ~rounds:3 l10 l11))
            c);
      job Game "ef_orders_distinct" (fun sp c ->
          solved ~job:"ef_orders_distinct" false
            (sp.f "Ef.solve_verdict" (fun () -> Ef.solve_verdict ~config:seq ~rounds:3 l5 l6))
            c);
      (* two pebbles cannot tell one 12-cycle from two 6-cycles *)
      job Game "pebble_cycles" (fun sp c ->
          solved ~job:"pebble_cycles" true
            (sp.f "Pebble.solve_verdict" (fun () ->
                 Pebble.solve_verdict ~config:seq_pebble ~pebbles:2 ~rounds:4 c12 two_c6))
            c);
      (* CFI(3) and its twist agree on C^2 *)
      job Game "counting_cfi" (fun sp c ->
          solved ~job:"counting_cfi" true
            (sp.f "Counting_game.solve_verdict" (fun () ->
                 Counting_game.solve_verdict ~config:seq_counting ~pebbles:2 ~rounds:8 cfi cfi_twisted))
            c);
      (* a fuel budget too small for the exact game forces a lower rung;
         L15 and L16 agree up to rank 4, so only Distinguished is unsound *)
      job Game "decide_fuel"
        (decide ~job:"decide_fuel" ~budget:(fun () -> fuel 2000) ~rank:4 l15 l16 ~truth:true);
      job Game "decide_exact"
        (decide ~job:"decide_exact" ~budget:(fun () -> fuel 10_000_000) ~rank:3 l5 l6
           ~truth:false);
      job Locality "census_torus" (census ~job:"census_torus" torus census_torus);
      job Locality "census_regular4" (census ~job:"census_regular4" regular census_regular);
      job Locality "wl_torus" (refine ~job:"wl_torus" torus);
      job Locality "wl_regular4" (refine ~job:"wl_regular4" regular);
    ]

(* ---- passes ---- *)

type pass = {
  times : (job * float) list; (* per job, seconds *)
  failures : int;
  counters : counters;
  window : float * float; (* when the pass ran *)
}

(* One pass over the jobs in list order. A wrong answer aborts the run;
   any other failure of a job is counted and the pass goes on. *)
let run_pass tr ~pass jobs =
  let c = counters () and failures = ref 0 and start = Util.now () in
  let times =
    List.mapi
      (fun j job ->
        let req = (pass * 100) + j in
        let sp = { f = (fun name call -> Trace.span tr ~req name call) } in
        Util.time_reference ();
        let t0 = Util.now () in
        (match Trace.span tr ~req "job" (fun () -> job.run sp c) with
        | () -> ()
        | exception (Util.Wrong _ as e) -> raise e
        | exception e ->
            incr failures;
            prerr_endline ("fmtk_bench: job " ^ job.name ^ " failed: " ^ Printexc.to_string e));
        (job, Util.now () -. t0))
      jobs
  in
  { times; failures = !failures; counters = c; window = (start, Util.now ()) }

(* The pass with the host's drift during it taken out ({!Util.drift}). *)
let steady p =
  let d = Util.drift p.window in
  { p with times = List.map (fun (j, t) -> (j, t /. d)) p.times }

let family_ms p fam =
  1e3 *. List.fold_left (fun acc (j, t) -> if j.family = fam then acc +. t else acc) 0. p.times

(* Rounds of passes until [seconds] have elapsed (at least one round);
   each round runs one pass under each of [traces], in order. Returns the
   passes made under each trace. *)
let passes traces jobs ~seconds =
  let deadline = Util.now () +. seconds in
  let rec go k acc =
    if k > 0 && Util.now () >= deadline then List.map List.rev acc
    else go (k + 1) (List.map2 (fun tr ps -> run_pass tr ~pass:k jobs :: ps) traces acc)
  in
  go 0 (List.map (fun _ -> []) traces)

let layer_spans =
  [
    ("fp_eval.ms", [ "Fp_eval.answers"; "Fp_eval.sat" ]);
    ("datalog.ms", [ "Engine.seminaive" ]);
    ("compiled.answers_ms", [ "Compiled.answers" ]);
    ("planner.plan_ms", [ "Planner.plan" ]);
    ("physical.run_ms", [ "Physical.run" ]);
    ("counting.ms", [ "Counting.sat" ]);
    ("engine.ms", [ "Ef.solve_verdict"; "Pebble.solve_verdict"; "Counting_game.solve_verdict" ]);
    ("decide.ms", [ "Decide.equiv" ]);
    ("neighborhood.census_ms", [ "Neighborhood.census" ]);
    ("wl.refine_ms", [ "Wl.refine" ]);
  ]

(* Per-layer numbers of the traced passes: per-pass sums, median over
   passes; counters are identical in every pass. Each family is
   reconciled against the untraced passes' median. *)
let layer_metrics jobs ~untraced ~(traced : pass list) tr =
  let npasses = List.length traced in
  let per_pass names =
    let sums = Array.make npasses 0. in
    List.iter
      (fun name ->
        List.iter
          (fun s -> sums.(s.Trace.req / 100) <- sums.(s.Trace.req / 100) +. Trace.dur s)
          (Trace.named tr name))
      names;
    1e3 *. Util.median_list (Array.to_list sums)
  in
  let c = (List.hd traced).counters in
  let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b in
  let children = Trace.children_sum tr in
  let job_family = Array.of_list (List.map (fun j -> j.family) jobs) in
  let recon =
    List.concat_map
      (fun fam ->
        let layers = Array.make npasses 0. and total = Array.make npasses 0. in
        List.iter
          (fun s ->
            if job_family.(s.Trace.req mod 100) = fam then begin
              let p = s.Trace.req / 100 in
              layers.(p) <- layers.(p) +. children s;
              total.(p) <- total.(p) +. Trace.dur s
            end)
          (Trace.named tr "job");
        let e2e = Util.median_list (List.map (fun p -> family_ms p fam) untraced) in
        let med a = 1e3 *. Util.median_list (Array.to_list a) in
        let name = "recon." ^ family_name fam in
        [
          (name ^ ".residual_ms", e2e -. med layers);
          (name ^ ".overhead_pct", if e2e = 0. then 0. else 100. *. ((med total /. e2e) -. 1.));
        ])
      families
  in
  List.map (fun (name, spans) -> (name, per_pass spans)) layer_spans
  @ [
      ("fp_eval.stages", float_of_int c.stages);
      ("fp_eval.tuples_tested", float_of_int c.tuples_tested);
      ("datalog.iterations", float_of_int c.iterations);
      ("datalog.join_work", float_of_int c.join_work);
      ("engine.positions", float_of_int c.positions);
      ("decide.exact_share", ratio c.exact c.decides);
      ("neighborhood.iso_tests", float_of_int c.iso_tests);
      ("neighborhood.serial_hit_rate", ratio c.serial_hits c.censused);
    ]
  @ recon

let setups = 3

let run ~seed ~seconds ~trace ~started : Util.outcome =
  (* Set-up, [setups] times: generate the inputs and their expected
     answers, then one warm-up pass. The first one counts from process
     start. *)
  let setup_s = ref [] and jobs = ref [] in
  for k = 1 to setups do
    let t0 = if k = 1 then started else Util.now () in
    (* the previous set-up's inputs must not inflate the peak *)
    jobs := [];
    Gc.compact ();
    let js = make_jobs ~seed in
    ignore (run_pass (Trace.create ~detail:false) ~pass:(-1) js);
    setup_s := (Util.now () -. t0) :: !setup_s;
    jobs := js
  done;
  let jobs = !jobs in
  let untraced = List.map steady (List.hd (passes [ Trace.create ~detail:false ] jobs ~seconds)) in
  let lat = Util.Samples.create () in
  List.iter (fun p -> List.iter (fun (_, t) -> Util.Samples.add lat (1e3 *. t)) p.times) untraced;
  let attempted = Util.Samples.count lat in
  let failed = List.fold_left (fun n p -> n + p.failures) 0 untraced in
  let tail, pct = Util.tail lat in
  Printf.printf "lib_batch: %d passes of %d jobs; job latency tail p%.2f\n"
    (List.length untraced) (List.length jobs) pct;
  List.iter
    (fun j ->
      Printf.printf "  job %-20s %-9s median %10.3f ms\n" j.name (family_name j.family)
        (Util.median_list
           (List.map (fun p -> 1e3 *. List.assq j p.times) untraced)))
    jobs;
  let e2e =
    [
      Util.m "setup_s" "s" (Util.median_list !setup_s);
      (* per second of job time: the host-speed reference between jobs
         is left out *)
      Util.m "throughput_rps" "1/s"
        (float_of_int (attempted - failed) /. (Util.Samples.sum lat /. 1e3));
      (* 19 jobs make 19 clusters of times: a plain median is one job's
         time, and which job changes with their relative speed *)
      Util.m "read_p50_ms" "ms" (Util.smoothed_median lat);
      Util.m "read_p99_ms" "ms" tail;
      Util.m "peak_rss_mb" "MB" (Util.peak_rss_mb "self");
      Util.m "ok_pct" "%" (100. *. float_of_int (attempted - failed) /. float_of_int attempted);
    ]
  in
  let extra =
    List.map
      (fun fam ->
        Util.m (family_name fam ^ "_ms") "ms"
          (Util.median_list (List.map (fun p -> family_ms p fam) untraced)))
      families
    @ [ Util.m "failed_pct" "%" (100. *. float_of_int failed /. float_of_int attempted) ]
  in
  let layers =
    if not trace then []
    else begin
      (* untraced and traced passes alternate, so host-speed drift stays
         out of the comparison between them *)
      let tr = Trace.create ~detail:true in
      match passes [ Trace.create ~detail:false; tr ] jobs ~seconds with
      | [ plain; traced ] ->
          Trace.write tr ".bench_out/trace-lib_batch.jsonl";
          layer_metrics jobs ~untraced:plain ~traced tr
      | _ -> assert false
    end
  in
  { Util.e2e; extra; layers; attempted; failed }
