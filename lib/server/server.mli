(** [fmtk serve] — the fault-tolerant long-running query service.

    One process serves many small decision/evaluation queries (model
    checking, EF/pebble/counting games, the {!Fmtk.Decide} ladder)
    against a {!Store} of named structures, over a line-delimited JSON
    protocol ({!Protocol}) on a Unix or TCP socket.

    Architecture: the caller's thread runs the accept loop; each
    connection gets a lightweight reader thread that parses lines,
    answers the cheap introspection ops inline, and dispatches real work
    onto a pool of {e reusable worker domains} created once at startup.
    Game solvers run single-domain inside a worker ([parallel = false])
    so the pool is the only fan-out.

    Robustness invariants, enforced here and tested by the E27 load
    harness and the serve cram/CI suites:
    - {b Admission control}: when in-flight work reaches
      [max_inflight], new pool requests are refused with a structured
      [shed] response carrying [retry_after_ms] — never queued without
      bound, never silently dropped.
    - {b Budget caps}: every pool request runs under a
      {!Fmtk_runtime.Budget.sub} of one server root budget — requested
      timeouts above [max_timeout] are rejected at admission, absent
      timeouts get [default_timeout], and the shared root cancellation
      token is the shutdown kill switch.
    - {b Crash isolation}: a worker exception (including injected
      faults), a [Gave_up] verdict, or a poisoned request produces an
      [error]/[degraded] response on that request only; the worker
      domain survives, and per-solve memo tables die with the solve, so
      nothing is poisoned across requests.
    - {b Input discipline}: malformed JSON, unknown ops/structures,
      over-limit deadlines and oversized lines all get structured error
      responses (the total parsers of PR 3 end to end); a connection
      idle past [idle_timeout] is closed with a final error line.
    - {b Graceful shutdown}: {!shutdown} (async-signal-safe — an atomic
      store, callable from a SIGINT/SIGTERM handler) stops the accept
      loop; {!run} then stops reading, drains in-flight requests under
      [drain_timeout], cancels stragglers through the root token, joins
      every worker domain and reader thread, and returns.
    - {b Durability}: with [data_dir] set the store is backed by a
      write-ahead {!Journal} and compacting {!Snapshot}s; [load]/[drop]
      are acknowledged only after journaling per the [sync] policy, and
      {!create} replays the previous life's data {e before} binding the
      socket — so a client that can connect sees every acked mutation,
      and a corrupt data dir refuses startup instead of silently serving
      an empty store. The kill-9 harness in [test/test_server.ml]
      (group [crash]) enforces this end to end. *)

module Budget = Fmtk_runtime.Budget

type addr =
  | Unix_path of string  (** Unix-domain socket at this path *)
  | Tcp of string * int  (** host, port; port 0 picks one — see {!port} *)

type config = {
  addr : addr;
  workers : int;  (** worker-domain pool size *)
  max_inflight : int;  (** admission watermark: queued + executing *)
  default_timeout : float;  (** seconds, when the request names none *)
  max_timeout : float;  (** server-enforced cap on requested timeouts *)
  drain_timeout : float;  (** seconds to drain in-flight work on shutdown *)
  idle_timeout : float;  (** close connections idle this long; 0 disables *)
  max_line : int;  (** bytes; longer request lines are rejected *)
  store_capacity : int;
  max_structure_size : int;
  data_dir : string option;
      (** persist the store here ({!Store.open_durable}); [None] is the
          in-memory store *)
  sync : Store.sync_policy;  (** journal fsync policy (durable stores) *)
  snapshot_threshold : int;
      (** journal bytes that trigger a compacting snapshot *)
  inject_faults : bool;
      (** deterministically inject budget/worker faults into a fraction
          of requests ({!Budget.inject}) — the E27 adversity harness *)
  log : (string -> unit) option;  (** lifecycle logging; [None] is quiet *)
}

(** Defaults: 4 workers (clamped to the machine), 64 in-flight, 5 s
    default / 60 s max timeout, 10 s drain, 600 s idle, 1 MiB lines. *)
val default_config : addr -> config

(** A snapshot of the service counters (the [stats] op serves this). *)
type stats = {
  uptime_s : float;
  connections : int;  (** accepted since start *)
  received : int;  (** request lines parsed (incl. malformed) *)
  completed_ok : int;
  completed_degraded : int;
  completed_error : int;  (** incl. malformed/rejected/crashed/gave-up *)
  shed : int;
  in_flight : int;
  cache_hits : int;  (** {!Qcache} hits on compiled closures *)
  cache_misses : int;
  plan_hits : int;  (** {!Qcache} hits on maintained plans (["ra": true]) *)
  plan_misses : int;
  plans_maintained : int;  (** delta propagations applied by [update] ops *)
  structures : int;
  durability : Store.durability_stats option;
      (** [None] unless running with a [data_dir] *)
}

type t

(** Opens (and, with [data_dir], recovers) the store, then binds and
    listens (replacing a stale Unix-socket file), preloads
    [(name, spec)] structures, creates the cache — but accepts no
    connection until {!run}. [Error] if the data dir is corrupt. *)
val create : ?preload:(string * string) list -> config -> (t, string) result

(** Serve until {!shutdown}; returns after the drain completes. Spawns
    the worker domains, runs the accept loop on the calling thread.
    Ignores SIGPIPE process-wide (client disconnects must not kill the
    server). *)
val run : t -> unit

(** Request shutdown. Async-signal-safe and idempotent: sets one atomic
    flag read by every loop — call it straight from a signal handler. *)
val shutdown : t -> unit

val stats : t -> stats

(** The bound TCP port ([Tcp (_, 0)] resolves at bind time). *)
val port : t -> int option
