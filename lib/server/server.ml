module Budget = Fmtk_runtime.Budget
module Structure = Fmtk_structure.Structure
module Structure_io = Fmtk_structure.Structure_io
module Tuple = Fmtk_structure.Tuple
module Formula = Fmtk_logic.Formula
module Compiled = Fmtk_eval.Compiled
module Ef = Fmtk_games.Ef
module Pebble = Fmtk_games.Pebble
module Counting_game = Fmtk_games.Counting_game
module Decide = Fmtk.Decide
module Spec = Fmtk.Spec

type addr = Unix_path of string | Tcp of string * int

type config = {
  addr : addr;
  workers : int;
  max_inflight : int;
  default_timeout : float;
  max_timeout : float;
  drain_timeout : float;
  idle_timeout : float;
  max_line : int;
  store_capacity : int;
  max_structure_size : int;
  data_dir : string option;
  sync : Store.sync_policy;
  snapshot_threshold : int;
  inject_faults : bool;
  log : (string -> unit) option;
}

let default_config addr =
  {
    addr;
    workers = max 1 (min 4 (Domain.recommended_domain_count () - 1));
    max_inflight = 64;
    default_timeout = 5.0;
    max_timeout = 60.0;
    drain_timeout = 10.0;
    idle_timeout = 600.0;
    max_line = 1 lsl 20;
    store_capacity = 256;
    max_structure_size = 100_000;
    data_dir = None;
    sync = Store.Always;
    snapshot_threshold = 64 * 1024 * 1024;
    inject_faults = false;
    log = None;
  }

(* Query-cache capacity: the entry table holds this many compiled
   closures and maintained plans together. *)
let cache_capacity = 1024

type stats = {
  uptime_s : float;
  connections : int;
  received : int;
  completed_ok : int;
  completed_degraded : int;
  completed_error : int;
  shed : int;
  in_flight : int;
  cache_hits : int;
  cache_misses : int;
  plan_hits : int;
  plan_misses : int;
  plans_maintained : int;
  structures : int;
  durability : Store.durability_stats option;
}

type conn = {
  fd : Unix.file_descr;
  out_mutex : Mutex.t;
  mutable out_open : bool; (* guarded by out_mutex *)
}

type job = {
  job_id : Json.t option;
  req : Protocol.request;
  budget : Budget.t;
  conn : conn;
  admitted_at : float;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  tcp_port : int option;
  store : Store.t;
  cache : Qcache.t;
  queue : job Queue.t;
  qmutex : Mutex.t;
  qcond : Condition.t;
  (* Guarded by [qmutex]: set by [run] once every reader is joined, so
     no job can be queued after it. Workers exit on it, not on [stop]:
     a reader admitting a request just before [stop] may still queue
     it, and an idle worker that left on [stop] would park (and expire)
     long before the drain ends. *)
  mutable closed : bool;
  stop : bool Atomic.t;
  root : Budget.t; (* carries the shared cancellation token *)
  in_flight : int Atomic.t;
  (* counters *)
  c_connections : int Atomic.t;
  c_received : int Atomic.t;
  c_ok : int Atomic.t;
  c_degraded : int Atomic.t;
  c_error : int Atomic.t;
  c_shed : int Atomic.t;
  request_seq : int Atomic.t; (* drives deterministic fault injection *)
  readers : (Mutex.t * Thread.t list ref);
  conns : (Mutex.t * conn list ref);
  started_at : float;
}

let log t msg = match t.cfg.log with None -> () | Some f -> f msg

let now () = Unix.gettimeofday ()

(* ---- socket plumbing ---- *)

let bind_listen = function
  | Unix_path path ->
      if String.length path > 100 then
        Error (Printf.sprintf "socket path too long (%d chars)" (String.length path))
      else begin
        (* Replace a stale socket file from a previous run. *)
        (match Unix.lstat path with
        | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
        | _ -> ()
        | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ());
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 128;
        Ok (fd, None)
      end
  | Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } -> raise Not_found
          | h -> h.Unix.h_addr_list.(0))
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 128;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> Some p
        | _ -> None
      in
      Ok (fd, bound)

(* Serialized, EPIPE-tolerant line write: a dead client must neither
   kill the server nor interleave two responses. *)
let write_line conn line =
  Mutex.lock conn.out_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock conn.out_mutex)
    (fun () ->
      if conn.out_open then
        let data = line ^ "\n" in
        let len = String.length data in
        let rec push off =
          if off < len then
            match Unix.write_substring conn.fd data off (len - off) with
            | n -> push (off + n)
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
            | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _)
              ->
                conn.out_open <- false
        in
        push 0)

(* ---- request execution (worker side) ---- *)

(* Orbit pruning is off: its automorphism precomputation runs before the
   game loop starts polling the budget, so on large symmetric structures
   it can blow a short request deadline several-fold before the first
   check. A latency-bound service prefers honest deadlines over a faster
   best case. *)
let seq_config =
  { Ef.memo = true; parallel = false; workers = None; orbit = false }

let seq_engine_config =
  { Fmtk_games.Engine.memo = true; parallel = false; workers = None }

(* An eval's quantifier scans are not budget-polled (the compiled runner
   has no hooks), so admission must bound them up front: reject
   sentences whose worst-case scan count dwarfs any sane deadline. *)
let eval_cost_ok s phi =
  let slots =
    Formula.quantifier_rank phi + List.length (Formula.free_vars phi)
  in
  float_of_int slots *. Float.log (float_of_int (max 2 (Structure.size s)))
  <= Float.log 1e9

let verdict_fields equivalent positions =
  [
    ("equivalent", Json.Bool equivalent);
    ("positions", Json.of_int positions);
  ]

let tuple_json tup = Json.List (List.map Json.of_int (Array.to_list tup))

exception Reject of string * string (* code, message *)

(* A game's [Invalid_argument] is a signature clash: bad input. *)
let bad_request_on_invalid f =
  try f () with Invalid_argument m -> raise (Reject ("bad-request", m))

let run_request t (job : job) =
  (* The binding paired with its mutation sequence, so a plan built from
     it knows exactly which store state it materializes. *)
  let get_seq name =
    match Store.get_seq t.store name with
    | Some p -> p
    | None -> raise (Reject ("unknown-structure", Printf.sprintf "no structure named %S (use the load op)" name))
  in
  let get name = fst (get_seq name) in
  match job.req with
  | Protocol.Ping | Protocol.List_structures | Protocol.Stats ->
      (* Inline ops never reach the pool. *)
      assert false
  | Protocol.Load { name; spec; text } -> (
      (* Declared sizes are checked before anything is built: one request
         must not be able to exhaust memory. *)
      let check = function
        | Ok () -> ()
        | Error (Store.Full e) -> raise (Reject ("store-full", e))
        | Error (Store.Too_large e) -> raise (Reject ("too-large", e))
        | Error (Store.Io e) -> raise (Reject ("io-error", e))
      in
      let parsed =
        match (spec, text) with
        | Some sp, _ ->
            Result.bind (Spec.generator sp) (fun (g : Spec.generator) ->
                check (Store.admit t.store ~size:g.elements ~tuples:g.tuples);
                g.build ())
        | None, Some tx ->
            Option.iter
              (fun size -> check (Store.admit t.store ~size ~tuples:0))
              (Structure_io.declared_size tx);
            Structure_io.parse tx
        | None, None -> Error "load needs a spec or text"
      in
      match parsed with
      | Error e -> raise (Reject ("parse-error", e))
      | Ok s ->
          check (Store.put t.store ~name s);
          Qcache.invalidate t.cache ~sname:name;
          ( `Ok,
            [
              ("name", Json.Str name);
              ("size", Json.of_int (Structure.size s));
              ("tuples", Json.of_int (Structure.tuple_count s));
            ] ))
  | Protocol.Drop { name } -> (
      match Store.remove t.store name with
      | Error e -> raise (Reject ("io-error", e))
      | Ok false ->
          raise
            (Reject
               ( "unknown-structure",
                 Printf.sprintf "no structure named %S to drop" name ))
      | Ok true ->
          (* The cache keys entries by structure name: a future load under
             this name must not see stale entries. *)
          Qcache.invalidate t.cache ~sname:name;
          (`Ok, [ ("name", Json.Str name); ("dropped", Json.Bool true) ]))
  | Protocol.Eval { structure; formula; ra } -> (
      let s, seq = get_seq structure in
      match Qcache.formula t.cache (Structure.signature s) formula with
      | Error e -> raise (Reject ("parse-error", e))
      | Ok phi ->
          (* [total] is the size of [tuples]; the sample is their 50
             smallest, in O(log n + 50). *)
          let answer_fields vars ~total tuples =
            if vars = [] then [ ("value", Json.Bool (total > 0)) ]
            else begin
              let sample =
                Tuple.Set.to_seq tuples |> Seq.take 50 |> List.of_seq
              in
              [
                ("vars", Json.List (List.map (fun v -> Json.Str v) vars));
                ("count", Json.of_int total);
                ("tuples", Json.List (List.map tuple_json sample));
                ("truncated", Json.Bool (total > List.length sample));
              ]
            end
          in
          if ra then begin
            (* The planned engine polls the request budget per row, so it
               needs no up-front cost gate; answers are maintained across
               [update] ops by delta propagation. *)
            match
              Qcache.with_result ~budget:job.budget t.cache
                ~sname:structure ~seq s formula phi (fun vars rel ->
                  answer_fields vars
                    ~total:(Fmtk_db.Relation.cardinality rel)
                    (Fmtk_db.Relation.tuples rel))
            with
            | Error e -> raise (Reject ("plan-error", e))
            | Ok fields -> (`Ok, ("engine", Json.Str "ra") :: fields)
          end
          else begin
            if not (eval_cost_ok s phi) then
              raise
                (Reject
                   ( "too-expensive",
                     "quantifier depth times structure size exceeds the \
                      server's evaluation bound" ));
            Qcache.with_compiled t.cache ~sname:structure s formula phi
              (fun compiled ->
                if Compiled.free_vars compiled = [] then
                  (`Ok, [ ("value", Json.Bool (Compiled.run compiled [||])) ])
                else
                  let tuples = Compiled.definable_relation_of compiled in
                  ( `Ok,
                    answer_fields
                      (Compiled.free_vars compiled)
                      ~total:(Tuple.Set.cardinal tuples) tuples ))
          end)
  | Protocol.Update { structure; rel; tuple; add } -> (
      let tup = Array.of_list tuple in
      match Store.update t.store ~name:structure ~rel tup ~add with
      | Error (`Unknown m) -> raise (Reject ("unknown-structure", m))
      | Error (`Invalid m) -> raise (Reject ("bad-update", m))
      | Error (`Io m) -> raise (Reject ("io-error", m))
      | Ok (s', changed, seq) ->
          if changed then
            Qcache.apply_update ~budget:job.budget t.cache ~sname:structure
              ~seq s' ~rel tup ~add;
          ( `Ok,
            [
              ("name", Json.Str structure);
              ("rel", Json.Str rel);
              ("tuple", tuple_json tup);
              ("action", Json.Str (if add then "insert" else "delete"));
              ("changed", Json.Bool changed);
              ("tuples", Json.of_int (Structure.tuple_count s'));
            ] ))
  | Protocol.Game { left; right; rounds; pebbles; counting } -> (
      let a = get left and b = get right in
      let verdict, (st : Fmtk_games.Engine.stats), game =
        bad_request_on_invalid @@ fun () ->
        match (pebbles, counting) with
        | None, _ ->
            let v, st =
              Ef.solve_verdict ~config:seq_config ~budget:job.budget ~rounds a b
            in
            (v, st, "ef")
        | Some k, false ->
            let v, st =
              Pebble.solve_verdict ~config:seq_config ~budget:job.budget
                ~pebbles:k ~rounds a b
            in
            (v, st, Printf.sprintf "pebble-%d" k)
        | Some k, true ->
            let v, st =
              Counting_game.solve_verdict ~config:seq_engine_config
                ~budget:job.budget ~pebbles:k ~rounds a b
            in
            (v, st, Printf.sprintf "counting-%d" k)
      in
      let base = [ ("game", Json.Str game); ("rounds", Json.of_int rounds) ] in
      match verdict with
      | Fmtk_games.Engine.Equivalent ->
          (`Ok, base @ verdict_fields true st.positions)
      | Fmtk_games.Engine.Distinguished ->
          (`Ok, base @ verdict_fields false st.positions)
      | Fmtk_games.Engine.Gave_up r -> raise (Budget.Exhausted r))
  | Protocol.Decide { left; right; rank } -> (
      let a = get left and b = get right in
      let outcome =
        bad_request_on_invalid @@ fun () ->
        Decide.equiv ~config:seq_config ~budget:job.budget ~rank a b
      in
      let meth =
        match outcome.Decide.answered_by with
        | Some m -> Decide.method_to_string m
        | None -> "none"
      in
      let base =
        [
          ("rank", Json.of_int rank);
          ("method", Json.Str meth);
          ("positions", Json.of_int outcome.Decide.positions);
        ]
      in
      let kind =
        if outcome.Decide.answered_by = Some Decide.Exact_game then `Ok
        else `Degraded
      in
      match outcome.Decide.verdict with
      | Decide.Equivalent ->
          (kind, ("verdict", Json.Str "equivalent") :: base)
      | Decide.Distinguished _ ->
          (kind, ("verdict", Json.Str "distinguished") :: base)
      | Decide.Distinguishable ->
          (`Degraded, ("verdict", Json.Str "distinguishable") :: base)
      | Decide.Gave_up r -> raise (Budget.Exhausted r))

let execute t (job : job) =
  let ms () = (now () -. job.admitted_at) *. 1000. in
  let kind, line =
    try
      (* Pre-dispatch polls: surface already-exhausted deadlines before
         any work, and give the injected faults (Exhaust_at/Cancel_at/
         Raise_in_worker) a deterministic firing point even for requests
         whose execution never polls (eval, load). *)
      let p = Budget.worker_poller job.budget in
      Budget.check p;
      Budget.check p;
      let kind, fields = run_request t job in
      let render =
        match kind with `Ok -> Protocol.ok | `Degraded -> Protocol.degraded
      in
      ((kind :> [ `Ok | `Degraded | `Error ]), render ~ms:(ms ()) ~id:job.job_id fields)
    with
    | Reject (code, msg) ->
        (`Error, Protocol.error ~ms:(ms ()) ~id:job.job_id ~code msg)
    | Budget.Exhausted r ->
        ( `Error,
          Protocol.error ~ms:(ms ()) ~id:job.job_id ~code:"gave-up"
            (Printf.sprintf "budget exhausted (%s) before an answer"
               (Budget.reason_to_string r)) )
    | Budget.Injected_fault ->
        ( `Error,
          Protocol.error ~ms:(ms ()) ~id:job.job_id ~code:"worker-crash"
            "injected worker fault" )
    | e ->
        ( `Error,
          Protocol.error ~ms:(ms ()) ~id:job.job_id ~code:"worker-crash"
            (Printexc.to_string e) )
  in
  (* The in-flight count is the admission-control watermark: it must fall
     on every completion path, crashes included — and before the response
     write, so a pipelined client that reads its answer and immediately
     probes [stats] sees the slot already released. *)
  Atomic.decr t.in_flight;
  (match kind with
  | `Ok -> Atomic.incr t.c_ok
  | `Degraded -> Atomic.incr t.c_degraded
  | `Error -> Atomic.incr t.c_error);
  write_line job.conn line

let rec worker_loop t =
  let job =
    Mutex.lock t.qmutex;
    let rec take () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if t.closed then None
      else begin
        Condition.wait t.qcond t.qmutex;
        take ()
      end
    in
    let j = take () in
    Mutex.unlock t.qmutex;
    j
  in
  match job with
  | None -> ()
  | Some job ->
      execute t job;
      worker_loop t

(* ---- admission (reader side) ---- *)

let snapshot t =
  {
    uptime_s = now () -. t.started_at;
    connections = Atomic.get t.c_connections;
    received = Atomic.get t.c_received;
    completed_ok = Atomic.get t.c_ok;
    completed_degraded = Atomic.get t.c_degraded;
    completed_error = Atomic.get t.c_error;
    shed = Atomic.get t.c_shed;
    in_flight = Atomic.get t.in_flight;
    cache_hits = Qcache.hits ~kind:`Compiled t.cache;
    cache_misses = Qcache.misses ~kind:`Compiled t.cache;
    plan_hits = Qcache.hits ~kind:`Plan t.cache;
    plan_misses = Qcache.misses ~kind:`Plan t.cache;
    plans_maintained = Qcache.maintained t.cache;
    structures = Store.count t.store;
    durability = Store.durability_stats t.store;
  }

let inline_response t (req : Protocol.request) id t0 =
  match req with
  | Protocol.Ping -> Protocol.ok ~ms:((now () -. t0) *. 1000.) ~id [ ("pong", Json.Bool true) ]
  | Protocol.List_structures ->
      Protocol.ok ~ms:((now () -. t0) *. 1000.) ~id
        [
          ("structures",
           Json.List
             (List.map
                (fun (name, size) ->
                  Json.Obj
                    [ ("name", Json.Str name); ("size", Json.of_int size) ])
                (Store.names t.store)));
        ]
  | Protocol.Stats ->
      let s = snapshot t in
      let probes = s.cache_hits + s.cache_misses in
      Protocol.ok ~ms:((now () -. t0) *. 1000.) ~id
        ([
          ("uptime_s", Json.Num s.uptime_s);
          ("connections", Json.of_int s.connections);
          ("received", Json.of_int s.received);
          ("ok", Json.of_int s.completed_ok);
          ("degraded", Json.of_int s.completed_degraded);
          ("error", Json.of_int s.completed_error);
          ("shed", Json.of_int s.shed);
          ("in_flight", Json.of_int s.in_flight);
          ("cache_hits", Json.of_int s.cache_hits);
          ("cache_misses", Json.of_int s.cache_misses);
          ("cache_hit_rate",
           Json.Num
             (if probes = 0 then 0.
              else float_of_int s.cache_hits /. float_of_int probes));
          ("plan_hits", Json.of_int s.plan_hits);
          ("plan_misses", Json.of_int s.plan_misses);
          ("plans_maintained", Json.of_int s.plans_maintained);
          ("structures", Json.of_int s.structures);
          ("workers", Json.of_int t.cfg.workers);
          ("max_inflight", Json.of_int t.cfg.max_inflight);
         ]
        @ match s.durability with
          | None -> []
          | Some d ->
              [
                ("data_dir", Json.Str d.Store.data_dir);
                ("sync", Json.Str (Store.sync_policy_to_string d.Store.sync));
                ("journaled", Json.of_int d.Store.journaled);
                ("journal_bytes", Json.of_int d.Store.journal_bytes);
                ("compactions", Json.of_int d.Store.compactions);
                ( "recovered_snapshot",
                  Json.of_int d.Store.recovered.Store.snapshot_records );
                ( "recovered_journal",
                  Json.of_int d.Store.recovered.Store.journal_records );
                ( "recovered_torn_bytes",
                  Json.of_int d.Store.recovered.Store.torn_bytes );
              ])
  | _ -> assert false

(* Deterministic fault mix for [inject_faults] runs: 3 faulted requests
   in every 10. Injected budgets get a private cancellation token — the
   whole point is proving one poisoned request cannot touch the rest of
   the fleet, so [Cancel_at] must not trip the shared root token. *)
let request_budget t ~deadline_in ~fuel =
  let seq = Atomic.fetch_and_add t.request_seq 1 in
  let inject =
    if not t.cfg.inject_faults then None
    else
      match seq mod 10 with
      | 3 -> Some (Budget.Exhaust_at 2)
      | 6 -> Some (Budget.Cancel_at 2)
      | 9 -> Some Budget.Raise_in_worker
      | _ -> None
  in
  match inject with
  | Some inject -> Budget.create ~deadline_in ?fuel ~inject ()
  | None ->
      let poll_interval =
        match fuel with Some f -> max 1 (min 256 (f / 10)) | None -> 256
      in
      Budget.sub t.root ~deadline_in ?fuel ~poll_interval

let handle_line t conn line =
  if String.trim line <> "" then begin
    Atomic.incr t.c_received;
    if String.length line > t.cfg.max_line then begin
      Atomic.incr t.c_error;
      write_line conn
        (Protocol.error ~id:None ~code:"oversized"
           (Printf.sprintf "request line exceeds %d bytes" t.cfg.max_line))
    end
    else
      let env = Protocol.parse_request line in
      match env.Protocol.body with
      | Error (code, msg) ->
          Atomic.incr t.c_error;
          write_line conn (Protocol.error ~id:env.Protocol.id ~code msg)
      | Ok (req, _) when Protocol.is_inline req ->
          Atomic.incr t.c_ok;
          write_line conn (inline_response t req env.Protocol.id (now ()))
      | Ok (req, limits) ->
          let id = env.Protocol.id in
          if Atomic.get t.stop then begin
            Atomic.incr t.c_error;
            write_line conn
              (Protocol.error ~id ~code:"shutting-down"
                 "server is draining; not accepting new work")
          end
          else if
            match limits.Protocol.timeout with
            | Some s -> s > t.cfg.max_timeout
            | None -> false
          then begin
            Atomic.incr t.c_error;
            write_line conn
              (Protocol.error ~id ~code:"deadline-over-limit"
                 (Printf.sprintf
                    "requested timeout %.3fs exceeds the server cap %.3fs"
                    (Option.get limits.Protocol.timeout)
                    t.cfg.max_timeout))
          end
          else begin
            (* Admission: reserve an in-flight slot or shed. *)
            let claimed = Atomic.fetch_and_add t.in_flight 1 in
            if claimed >= t.cfg.max_inflight then begin
              Atomic.decr t.in_flight;
              Atomic.incr t.c_shed;
              let excess = claimed - t.cfg.max_inflight + 1 in
              write_line conn
                (Protocol.shed ~id ~retry_after_ms:(min 500 (25 * excess)))
            end
            else begin
              let deadline_in =
                match limits.Protocol.timeout with
                | Some s -> s
                | None -> t.cfg.default_timeout
              in
              let budget =
                request_budget t ~deadline_in ~fuel:limits.Protocol.fuel
              in
              let job =
                { job_id = id; req; budget; conn; admitted_at = now () }
              in
              Mutex.lock t.qmutex;
              Queue.push job t.queue;
              Condition.signal t.qcond;
              Mutex.unlock t.qmutex
            end
          end
  end

(* ---- connection reader ---- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let reader_thread t conn =
  let buf = Bytes.create 4096 in
  let pending = Buffer.create 256 in
  let last_activity = ref (now ()) in
  let alive = ref true in
  (* Split out complete lines; returns false when the unterminated tail
     is already oversized (no way to resync — close the connection). *)
  let drain_lines () =
    let data = Buffer.contents pending in
    let rec go start =
      match String.index_from_opt data start '\n' with
      | Some nl ->
          handle_line t conn (String.sub data start (nl - start));
          go (nl + 1)
      | None ->
          Buffer.clear pending;
          Buffer.add_substring pending data start (String.length data - start)
    in
    go 0;
    if Buffer.length pending > t.cfg.max_line then begin
      Atomic.incr t.c_received;
      Atomic.incr t.c_error;
      write_line conn
        (Protocol.error ~id:None ~code:"oversized"
           (Printf.sprintf
              "request line exceeds %d bytes; closing connection"
              t.cfg.max_line));
      false
    end
    else true
  in
  while !alive && not (Atomic.get t.stop) do
    match Unix.select [ conn.fd ] [] [] 0.25 with
    | [], _, _ ->
        if
          t.cfg.idle_timeout > 0.
          && now () -. !last_activity > t.cfg.idle_timeout
        then begin
          write_line conn
            (Protocol.error ~id:None ~code:"idle-timeout"
               (Printf.sprintf "connection idle for more than %.0fs"
                  t.cfg.idle_timeout));
          alive := false
        end
    | _ :: _, _, _ -> (
        match Unix.read conn.fd buf 0 (Bytes.length buf) with
        | 0 -> alive := false (* EOF *)
        | n ->
            last_activity := now ();
            Buffer.add_subbytes pending buf 0 n;
            if not (drain_lines ()) then alive := false
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
            alive := false)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done
  (* The fd stays open: in-flight workers may still be writing their
     responses to it. [run] closes every connection after the drain. *)

(* ---- lifecycle ---- *)

let create ?(preload = []) cfg =
  let cfg = { cfg with workers = max 1 cfg.workers } in
  (* Recover the store BEFORE binding the socket: readiness is the bind,
     so no client can connect until every acked mutation from the
     previous life is back — and a corrupt data dir refuses to serve
     rather than serving an empty store. *)
  let store_result =
    match cfg.data_dir with
    | None ->
        Ok
          (Store.create ~capacity:cfg.store_capacity
             ~max_size:cfg.max_structure_size ())
    | Some dir -> (
        match
          Store.open_durable ~capacity:cfg.store_capacity
            ~max_size:cfg.max_structure_size ~sync:cfg.sync
            ~snapshot_threshold:cfg.snapshot_threshold ~dir ()
        with
        | Error e -> Error (Printf.sprintf "data dir %s unusable: %s" dir e)
        | Ok (store, r) ->
            (match cfg.log with
            | None -> ()
            | Some f ->
                f
                  (Printf.sprintf
                     "recovered %d structure(s) from %s (%d snapshot + %d \
                      journal records%s) in %.1f ms"
                     (Store.count store) dir r.Store.snapshot_records
                     r.Store.journal_records
                     (if r.Store.torn_bytes > 0 then
                        Printf.sprintf ", %d torn byte(s) truncated"
                          r.Store.torn_bytes
                      else "")
                     r.Store.recovery_ms));
            Ok store)
  in
  match store_result with
  | Error e -> Error e
  | Ok store -> (
      let fail e =
        Store.close store;
        Error e
      in
      match bind_listen cfg.addr with
      | Error e -> fail e
      | exception Unix.Unix_error (err, fn, arg) ->
          fail
            (Printf.sprintf "cannot bind %s: %s (%s)" fn
               (Unix.error_message err) arg)
      | Ok (listen_fd, tcp_port) -> (
      let preload_result =
        List.fold_left
          (fun acc (name, spec) ->
            match acc with
            | Error _ as e -> e
            | Ok () -> (
                match Spec.parse spec with
                | Error e ->
                    Error (Printf.sprintf "preload %s=%s: %s" name spec e)
                | Ok s -> (
                    match Store.put store ~name s with
                    | Error e ->
                        Error
                          (Printf.sprintf "preload %s: %s" name
                             (Store.put_error_to_string e))
                    | Ok () -> Ok ())))
          (Ok ()) preload
      in
      match preload_result with
      | Error e ->
          close_quietly listen_fd;
          fail e
      | Ok () ->
          Ok
            {
              cfg;
              listen_fd;
              tcp_port;
              store;
              cache = Qcache.create ~capacity:cache_capacity ();
              queue = Queue.create ();
              qmutex = Mutex.create ();
              qcond = Condition.create ();
              closed = false;
              stop = Atomic.make false;
              root = Budget.create ~cancel:(Budget.Cancel.create ()) ();
              in_flight = Atomic.make 0;
              c_connections = Atomic.make 0;
              c_received = Atomic.make 0;
              c_ok = Atomic.make 0;
              c_degraded = Atomic.make 0;
              c_error = Atomic.make 0;
              c_shed = Atomic.make 0;
              request_seq = Atomic.make 0;
              readers = (Mutex.create (), ref []);
              conns = (Mutex.create (), ref []);
              started_at = now ();
            }))

let shutdown t = Atomic.set t.stop true

let port t = t.tcp_port

let stats = snapshot

let addr_to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let run t =
  (* A client hanging up mid-response must not kill the process. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (* Worker domains come from the process-wide runtime pool rather than
     a private [Domain.spawn] per restart: a server that has drained
     parks its warm domains for the next solve (or the next server),
     and vice versa. The handles are joined on shutdown exactly as the
     raw domains were. *)
  let pool = Fmtk_runtime.Pool.shared () in
  let workers =
    Array.init t.cfg.workers (fun _ ->
        Fmtk_runtime.Pool.spawn pool (fun () -> worker_loop t))
  in
  log t
    (Printf.sprintf "listening on %s (%d workers, max %d in-flight)"
       (addr_to_string
          (match (t.cfg.addr, t.tcp_port) with
          | Tcp (h, 0), Some p -> Tcp (h, p)
          | a, _ -> a))
       t.cfg.workers t.cfg.max_inflight);
  let reader_mutex, reader_list = t.readers in
  let conn_mutex, conn_list = t.conns in
  (* Accept loop: select so the shutdown flag is observed within 0.2 s
     even with no traffic. *)
  while not (Atomic.get t.stop) do
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [], _, _ -> ()
    | _ :: _, _, _ -> (
        match Unix.accept t.listen_fd with
        | fd, _ ->
            Atomic.incr t.c_connections;
            let conn = { fd; out_mutex = Mutex.create (); out_open = true } in
            Mutex.lock conn_mutex;
            conn_list := conn :: !conn_list;
            Mutex.unlock conn_mutex;
            let th = Thread.create (fun () -> reader_thread t conn) () in
            Mutex.lock reader_mutex;
            reader_list := th :: !reader_list;
            Mutex.unlock reader_mutex
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Graceful shutdown: stop accepting, stop reading, drain, cancel
     stragglers, join everything. *)
  close_quietly t.listen_fd;
  (match t.cfg.addr with
  | Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  (* Readers observe [stop] within one select tick; once joined, no new
     job can be enqueued. *)
  Mutex.lock reader_mutex;
  let readers_now = !reader_list in
  Mutex.unlock reader_mutex;
  List.iter Thread.join readers_now;
  let inflight () = Atomic.get t.in_flight in
  if inflight () > 0 then
    log t
      (Printf.sprintf "draining %d in-flight request(s) (deadline %.1fs)"
         (inflight ()) t.cfg.drain_timeout);
  let drain_deadline = now () +. t.cfg.drain_timeout in
  while inflight () > 0 && now () < drain_deadline do
    Thread.delay 0.01
  done;
  if inflight () > 0 then begin
    (* Stragglers: fire the shared cancellation token; budgeted solvers
       give up within one poll interval and answer [gave-up]. *)
    log t
      (Printf.sprintf "drain deadline passed; cancelling %d straggler(s)"
         (inflight ()));
    Budget.cancel t.root;
    let grace = now () +. 5.0 in
    while inflight () > 0 && now () < grace do
      Thread.delay 0.01
    done
  end;
  (* Wake idle workers so they observe [closed] and exit, then join. *)
  Mutex.lock t.qmutex;
  t.closed <- true;
  Condition.broadcast t.qcond;
  Mutex.unlock t.qmutex;
  Array.iter Fmtk_runtime.Pool.join workers;
  Mutex.lock conn_mutex;
  let conns_now = !conn_list in
  Mutex.unlock conn_mutex;
  List.iter
    (fun conn ->
      Mutex.lock conn.out_mutex;
      conn.out_open <- false;
      Mutex.unlock conn.out_mutex;
      close_quietly conn.fd)
    conns_now;
  (* All workers are joined: no mutation can race this final flush. *)
  Store.close t.store;
  let s = stats t in
  log t
    (Printf.sprintf
       "shutdown complete: %d request(s) served (%d ok, %d degraded, %d \
        error, %d shed), %d still in flight"
       s.received s.completed_ok s.completed_degraded s.completed_error s.shed
       s.in_flight)
