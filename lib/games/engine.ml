(* The generic game-engine kernel — see engine.mli for what it owns
   (memo, budget polling, stats, verdicts, the work-stealing fan-out). A
   game plugs in only its move semantics ({!GAME}). *)

module Budget = Fmtk_runtime.Budget
module Deque = Fmtk_runtime.Deque
module Pool = Fmtk_runtime.Pool
module Tbl = Packed.Tbl

type config = { memo : bool; parallel : bool; workers : int option }

let default_config = { memo = true; parallel = true; workers = None }

type stats = { positions : int; memo_hits : int; workers : int }

let no_stats = { positions = 0; memo_hits = 0; workers = 1 }

type verdict = Equivalent | Distinguished | Gave_up of Budget.reason

let verdict_of win = if win then Equivalent else Distinguished

module type GAME = sig
  type ctx
  type pos

  val key : ctx -> pos -> Packed.Key.t
  val terminal : ctx -> pos -> bool option
  val expand : ctx -> recurse:(pos -> bool) -> pos -> bool
  val tasks : ctx -> pos -> (recurse:(pos -> bool) -> bool) list
end

(* Shared memo of one parallel solve: key-hash -> shard, mutex-guarded
   table per shard. The parallel path must lock reads as well as
   writes — a [Hashtbl] resize concurrent with an unlocked [find_opt]
   is a data race in OCaml 5 — so each distinct position costs one
   shard-lock acquisition (the claim); everything else is answered by
   the worker's lock-free L1 tier, and completed values flow back in
   per-shard batches ([store_batch]) rather than one lock round-trip
   per value. 64 shards keep contention low.

   Entries are claims: the first worker to reach a key installs
   [In_progress] and owns both the expansion and the position count;
   a worker that finds [In_progress] recomputes privately (sound —
   values are deterministic per key) without counting, so [positions]
   stays a count of distinct claimed positions. A worker interrupted
   by [Budget.Exhausted] (or a fault injection) may leave an
   [In_progress] claim behind; every [Done] value is the result of a
   completed subgame, so an interrupted solve cannot poison the memo
   for workers that outlive it — stale claims only cost racers a
   recompute, and each solve builds a fresh table anyway. *)
module Shared_memo = struct
  type entry = In_progress | Done of bool
  type shard = { lock : Mutex.t; tbl : entry Tbl.t }
  type t = { shards : shard array; mask : int }

  type outcome =
    | Hit of bool  (* computed by some worker; use it *)
    | Claimed  (* absent; this worker now owns expansion and count *)
    | Racing  (* claimed elsewhere: recompute privately, don't count *)
    | Miss  (* absent, but claiming is off (memo cap): expand and count *)

  let shards = 64

  let create () =
    {
      shards =
        Array.init shards (fun _ ->
            { lock = Mutex.create (); tbl = Tbl.create 1024 });
      mask = shards - 1;
    }

  let find_or_claim m key ~claim =
    let s = m.shards.(Packed.Key.hash key land m.mask) in
    Mutex.lock s.lock;
    let r =
      match Tbl.find_opt s.tbl key with
      | Some (Done v) -> Hit v
      | Some In_progress -> Racing
      | None ->
          if claim then begin
            Tbl.replace s.tbl key In_progress;
            Claimed
          end
          else Miss
    in
    Mutex.unlock s.lock;
    r

  (* Flush a worker's batch of completed values, one lock round-trip
     per touched shard instead of one per value. *)
  let store_batch m entries =
    let buckets = Array.make shards [] in
    List.iter
      (fun ((key, _) as e) ->
        let i = Packed.Key.hash key land m.mask in
        buckets.(i) <- e :: buckets.(i))
      entries;
    Array.iteri
      (fun i bucket ->
        if bucket <> [] then begin
          let s = m.shards.(i) in
          Mutex.lock s.lock;
          List.iter (fun (key, v) -> Tbl.replace s.tbl key (Done v)) bucket;
          Mutex.unlock s.lock
        end)
      buckets
end

(* The automatic policy's size floor, in move sequences; engine.mli
   gives the fan-out cost it amortizes. *)
let parallel_floor = 4096

(* Positions this close to the root publish their obligations as
   stealable tasks; deeper ones expand in place. *)
let split_depth = 3

(* [width^depth_hint >= parallel_floor], without overflow. *)
let big_enough ~depth_hint ~width =
  let rec go acc d =
    acc >= parallel_floor || (d > 0 && width > 1 && go (acc * width) (d - 1))
  in
  go 1 depth_hint

(* How many domains a solve may use. [moves] is the number of root
   obligations the game exposes (already symmetry-pruned by the game's
   orbit oracles): at most one obligation means there is nothing to
   hand out and depth-aware splitting has no seed either, so the solve
   stays sequential. Beyond that, an explicit [workers = Some k] is
   taken as given — splitting regenerates work below the root, so [k]
   no longer needs to be clamped to the root frontier width (tests use
   it to exercise the parallel path deterministically on any machine) —
   and the automatic policy fans out only games deep enough to split
   and big enough to repay the fan-out, never past what the hardware
   offers. *)
let worker_count config ~depth_hint ~width ~moves =
  if (not config.parallel) || depth_hint < 1 || moves <= 1 then 1
  else
    match config.workers with
    | Some k -> max 1 k
    | None ->
        if depth_hint < 2 || not (big_enough ~depth_hint ~width) then 1
        else min 8 (Domain.recommended_domain_count ())

(* Raised inside a worker when [stop] is observed mid-search: unwinds
   the worker's frame waits without touching pending counters (every
   other waiter unwinds the same way, so nobody spins on them). *)
exception Aborted

(* Fork-join frame for one split position: [pending] obligations still
   unfinished, [alive] cleared when any obligation fails (the
   conjunction is false; waiters return early and stale tasks are
   skipped). *)
type frame = { pending : int Atomic.t; alive : bool Atomic.t }

module Make (G : GAME) = struct
  (* One stealable unit of work: an obligation of [frame]'s position,
     whose child recursions happen at [depth]. *)
  type task = {
    frame : frame;
    depth : int;
    run : recurse:(G.pos -> bool) -> bool;
  }

  (* The sequential value function: one unlocked table, no atomics, no
     claims. The table lives as long as the closure. *)
  let sequential ~config ~budget ctx =
    let memo = Tbl.create 1024 in
    let poller = Budget.poller budget in
    let explored = ref 0 and hits = ref 0 in
    let rec solve pos =
      Budget.check poller;
      match G.terminal ctx pos with
      | Some v -> v
      | None -> (
          let key = G.key ctx pos in
          match if config.memo then Tbl.find_opt memo key else None with
          | Some v ->
              incr hits;
              v
          | None ->
              incr explored;
              let v = G.expand ctx ~recurse:solve pos in
              (* Memory cap: past it, stop storing (sound — we only
                 lose sharing) rather than grow the table further. *)
              if config.memo && Budget.memo_ok budget ~entries:!explored
              then Tbl.replace memo key v;
              v)
    in
    let stats () = { positions = !explored; memo_hits = !hits; workers = 1 } in
    (solve, stats)

  let solve_verdict ~config ~budget ~depth_hint ~width ctx root =
    let root_tasks = Array.of_list (G.tasks ctx root) in
    let w =
      worker_count config ~depth_hint ~width ~moves:(Array.length root_tasks)
    in
    if depth_hint = 0 || w <= 1 then begin
      let value, stats = sequential ~config ~budget ctx in
      match value root with
      | v -> (verdict_of v, stats ())
      | exception Budget.Exhausted r -> (Gave_up r, stats ())
    end
    else begin
      (* Parallel path. Work lives in per-worker Chase–Lev deques: a
         worker expanding a position above the split-depth cutoff
         publishes the position's obligations as tasks in its own deque
         (bottom = deepest, so thieves take the shallowest — largest —
         subtree) and then helps: it pops its own deque, steals from
         the others, and only naps when everything is empty. Parallelism
         therefore regenerates below the root instead of dying when
         orbit pruning collapses the root frontier to fewer obligations
         than workers.

         Failure discipline: a worker never lets an exception escape
         into its pool handle. The first failure (budget exhaustion or
         a real fault) is parked in the worker's own [failures] slot
         and [stop] makes every other worker unwind at its next spin
         check; the coordinator joins ALL handles before acting, so no
         domain is leaked, a real fault is preferred over a secondary
         budget exhaustion when both were parked, and counters are
         flushed on the way out so stats survive a [Gave_up]. *)
      let shared = Shared_memo.create () in
      let deques = Array.init w (fun _ -> Deque.create ~capacity:1024 ()) in
      let root_frame =
        {
          pending = Atomic.make (Array.length root_tasks);
          alive = Atomic.make true;
        }
      in
      (* Seed the deques round-robin before any worker starts (pushes
         by a non-owner are fine here: [Pool.spawn] publishes them). *)
      Array.iteri
        (fun i run ->
          ignore (Deque.push deques.(i mod w) { frame = root_frame; depth = 1; run }))
        root_tasks;
      let stop = Atomic.make false in
      let failures = Array.make w None in
      let positions = Atomic.make 1 (* the root position itself *) in
      let hits_total = Atomic.make 0 in
      let worker idx ~spawned () =
        let poller =
          if spawned then Budget.worker_poller budget else Budget.poller budget
        in
        let own = deques.(idx) in
        (* Depth (from the root) of the positions the current [recurse]
           calls evaluate; saved and restored around every task, which
           carries its own depth. *)
        let cur_depth = ref 1 in
        let l1 = Tbl.create 1024 in
        let flush_buf = ref [] and flush_n = ref 0 in
        let explored = ref 0 and hits = ref 0 in
        let flush () =
          if !flush_buf <> [] then begin
            Shared_memo.store_batch shared !flush_buf;
            flush_buf := [];
            flush_n := 0
          end
        in
        let idle_check () =
          if Atomic.get stop then raise Aborted;
          (match Budget.exhausted budget with
          | Some r -> raise (Budget.Exhausted r)
          | None -> ());
          Pool.nap ()
        in
        let try_steal () =
          let rec scan j =
            if j = w then None
            else
              let v = j + idx + 1 in
              let victim = deques.(if v >= w then v - w else v) in
              match Deque.steal victim with
              | Some _ as t -> t
              | None -> scan (j + 1)
          in
          scan 0
        in
        let rec solve pos =
          Budget.check poller;
          match G.terminal ctx pos with
          | Some v -> v
          | None ->
              if not config.memo then begin
                incr explored;
                eval pos
              end
              else begin
                let key = G.key ctx pos in
                match Tbl.find_opt l1 key with
                | Some v ->
                    incr hits;
                    v
                | None -> (
                    let can_store =
                      Budget.memo_ok budget ~entries:!explored
                    in
                    match
                      Shared_memo.find_or_claim shared key ~claim:can_store
                    with
                    | Shared_memo.Hit v ->
                        incr hits;
                        if can_store then Tbl.replace l1 key v;
                        v
                    | Shared_memo.Claimed ->
                        incr explored;
                        let v = eval pos in
                        Tbl.replace l1 key v;
                        flush_buf := (key, v) :: !flush_buf;
                        incr flush_n;
                        if !flush_n >= 32 then flush ();
                        v
                    | Shared_memo.Racing ->
                        (* Claimed elsewhere: recompute privately (the
                           claimer owns the count). *)
                        let v = eval pos in
                        if can_store then Tbl.replace l1 key v;
                        v
                    | Shared_memo.Miss ->
                        (* Past the memo cap: expand without storing,
                           exactly like the sequential engine. *)
                        incr explored;
                        eval pos)
              end
        and eval pos =
          let d = !cur_depth in
          if d < split_depth then
            match G.tasks ctx pos with
            | [ run ] ->
                (* A single obligation: splitting buys nothing. *)
                cur_depth := d + 1;
                let v = run ~recurse:solve in
                cur_depth := d;
                v
            | [] -> expand_here pos d
            | obligations -> split d obligations
          else expand_here pos d
        and expand_here pos d =
          cur_depth := d + 1;
          let v = G.expand ctx ~recurse:solve pos in
          cur_depth := d;
          v
        and split d obligations =
          let frame =
            {
              pending = Atomic.make (List.length obligations);
              alive = Atomic.make true;
            }
          in
          List.iter
            (fun run ->
              let t = { frame; depth = d + 1; run } in
              (* Full deque: run the obligation inline — exactly what
                 the sequential engine would have done. *)
              if not (Deque.push own t) then exec t)
            obligations;
          wait_frame frame
        and exec t =
          if Atomic.get t.frame.alive then begin
            if Atomic.get stop then raise Aborted;
            let saved = !cur_depth in
            cur_depth := t.depth;
            let v = t.run ~recurse:solve in
            cur_depth := saved;
            if not v then Atomic.set t.frame.alive false
          end;
          ignore (Atomic.fetch_and_add t.frame.pending (-1))
        and wait_frame frame =
          (* Help-first wait: while our obligations are outstanding,
             run whatever work exists anywhere — our own deque first,
             then steal — so a frame whose tasks were stolen by a
             worker that has since moved on still completes. *)
          if not (Atomic.get frame.alive) then false
          else if Atomic.get frame.pending = 0 then Atomic.get frame.alive
          else begin
            (match Deque.pop own with
            | Some t -> exec t
            | None -> (
                match try_steal () with
                | Some t -> exec t
                | None -> idle_check ()));
            wait_frame frame
          end
        in
        let rec main_loop () =
          if
            Atomic.get root_frame.pending > 0
            && Atomic.get root_frame.alive
            && not (Atomic.get stop)
          then begin
            (match Deque.pop own with
            | Some t -> exec t
            | None -> (
                match try_steal () with
                | Some t -> exec t
                | None -> idle_check ()));
            main_loop ()
          end
        in
        (try
           (* Validate the budget before taking any work: a worker of a
              solve that is already out of (or about to run out of)
              budget should park that, not race the coordinator to the
              finish. Also what makes [Raise_in_worker] deterministic:
              every spawned worker polls at least once. *)
           Budget.check poller;
           main_loop ()
         with
        | Aborted -> ()
        | e ->
            failures.(idx) <- Some e;
            Atomic.set stop true);
        (* Completed values are sound even after a fault; publish them
           so surviving workers share them, then flush counters. *)
        (try flush () with _ -> ());
        ignore (Atomic.fetch_and_add positions !explored);
        ignore (Atomic.fetch_and_add hits_total !hits)
      in
      let pool = Pool.shared () in
      let handles =
        Array.init (w - 1) (fun j -> Pool.spawn pool (worker (j + 1) ~spawned:true))
      in
      worker 0 ~spawned:false ();
      (* Release workers still help-waiting on frames orphaned by an
         early refutation, then join every handle before deciding. *)
      Atomic.set stop true;
      Array.iter Pool.join handles;
      let positions = Atomic.get positions
      and memo_hits = Atomic.get hits_total in
      let parked = Array.to_list failures |> List.filter_map Fun.id in
      match
        List.find_opt
          (function Budget.Exhausted _ -> false | _ -> true)
          parked
      with
      | Some e -> raise e
      | None ->
          let stats = { positions; memo_hits; workers = w } in
          match parked with
          | Budget.Exhausted r :: _ -> (Gave_up r, stats)
          | _ -> (verdict_of (Atomic.get root_frame.alive), stats)
    end
end
