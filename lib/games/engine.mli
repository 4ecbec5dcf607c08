(** Generic kernel for back-and-forth model-comparison games.

    The paper's §3.2 presents Ehrenfeucht–Fraïssé, pebble and counting
    games as one method with interchangeable move semantics; this module
    is that method, as code. A game supplies its {e move semantics} — a
    position type, a packed memo key, the expansion of a position into a
    duplicator-survival value, and the decomposition of a position into
    independent obligations — and the kernel supplies, exactly once:

    - memoization under packed int-array keys ({!Packed}), with the
      budget's memo cap honoured on insertion;
    - for parallel runs, a two-tier memo: a thread-local L1 table per
      worker (lock-free, answers repeat visits within a worker) over a
      64-way sharded, mutex-guarded shared table that workers flush
      completed batches into; the sequential path keeps its single
      unlocked table — the lock-free fast path, unchanged;
    - a work-distribution runtime built on per-worker Chase–Lev deques
      ({!Fmtk_runtime.Deque}): a worker expanding a position less than
      3 moves below the root publishes the position's conjunctive
      obligations as stealable tasks, so parallelism {e regenerates
      below the root} instead of dying when orbit pruning collapses the
      root frontier; idle workers steal the shallowest (largest)
      published subtree;
    - worker domains drawn from the process-wide
      {!Fmtk_runtime.Pool} — no [Domain.spawn] per solve — with
      per-worker parked exceptions drained after every domain is
      joined, so no domain leaks and a real fault is never masked by a
      secondary budget exhaustion;
    - amortized budget polling (one {!Fmtk_runtime.Budget.check} per
      position), turning deadlines, fuel, memory caps and cross-domain
      cancellation into {!verdict}s rather than wrong answers — stolen
      tasks poll through the stealing worker's own poller;
    - a {!stats} record aggregated across workers.

    The games' rules live on one board ({!Board}: the k-pebble game,
    lifting a pebble only when none is free, sound as winning positions
    are closed under subsets; orbits refined lazily). {!Ef}, {!Pebble}
    and {!Counting_game} play on it. *)

module Budget = Fmtk_runtime.Budget

(** Kernel configuration, shared by every instance. [memo] caches
    positions under their packed keys; [parallel] enables the fan-out
    when the game is big enough; [workers] overrides the automatic
    worker count ([Some 1] forces the sequential path, [Some k] forces
    a [k]-domain fan-out — tests use it to exercise the parallel path
    deterministically on any machine). *)
type config = { memo : bool; parallel : bool; workers : int option }

val default_config : config

(** Counters of one solve, returned on decided AND on gave-up runs.
    [positions] is the number of distinct positions expanded; in
    parallel memoized runs a position is counted by the worker that
    {e claims} its key in the shared memo, so racing workers never
    count the same position twice. [memo_hits] is the number of
    searches answered from a memo tier; [workers] the domains actually
    used (the effective count — 1 means the sequential fast path
    ran). Parallel runs may expand (and count) obligations a
    sequential run would have short-circuited past, so position counts
    across worker counts agree exactly when no obligation fails and
    can differ when one does: a split position's owner runs its own
    obligations last-first, so when the refuting move comes early in
    the game's order a parallel count can be several times the
    sequential one (3-pebble C_12 vs C_6 ⊎ C_6 over 5 rounds: 69
    sequential, about 430 on 2 workers). Verdicts never differ. *)
type stats = { positions : int; memo_hits : int; workers : int }

(** The stats of a game decided before any search: nothing explored. *)
val no_stats : stats

(** Three-valued outcome of a budgeted solve. [Gave_up r] means the
    budget ran out for reason [r] before the game was decided — never a
    wrong answer, only an absent one. *)
type verdict = Equivalent | Distinguished | Gave_up of Budget.reason

(** The move semantics a game plugs into the kernel. *)
module type GAME = sig
  (** Everything fixed across one solve: the move check, the
      colour/orbit oracles, packing parameters. Built in full before the
      solve — lazily filled caches, such as membership indexes, forced —
      and shared read-only (or internally synchronized) across
      workers. *)
  type ctx

  (** One game position. Must carry everything [expand] needs; the
      kernel never inspects it beyond [key]/[terminal]. *)
  type pos

  (** Memo key of a position — by convention the round count followed by
      the sorted packed pebble pairs (see {!Packed}). Positions with
      equal keys must have equal game values. *)
  val key : ctx -> pos -> Packed.Key.t

  (** [Some v] when the position is decided without expansion (e.g. no
      rounds left); such positions are neither memoized nor counted. *)
  val terminal : ctx -> pos -> bool option

  (** Duplicator-survival value of a non-terminal position. [recurse]
      evaluates a child position through the kernel (memo, budget,
      stats); the game must funnel every child through it. *)
  val expand : ctx -> recurse:(pos -> bool) -> pos -> bool

  (** Decomposition of a non-terminal position into independent
      obligations whose conjunction is the position's value — the units
      of parallel work. Must agree with [expand] at every position (the
      kernel uses it at the root and, near the root in parallel runs,
      in place of [expand]); construction must be cheap and must not
      invoke [recurse] — each obligation runs with the executing
      worker's own [recurse]. Games whose positions do not decompose
      (the counting game's bijection move) return a singleton, which
      keeps the solve sequential. *)
  val tasks : ctx -> pos -> (recurse:(pos -> bool) -> bool) list
end

(** Worker-count policy, exposed for tests. 1 (the sequential fast
    path) when [parallel] is off, the game is shallow
    ([depth_hint < 1]) or the root frontier has at most one obligation
    ([moves <= 1] — nothing to distribute and splitting cannot start).
    Otherwise an explicit [workers = Some k] is used as given — deque
    splitting regenerates work below the root, so [k] is no longer
    clamped to the root frontier width. The automatic policy takes
    [min 8 (Domain.recommended_domain_count ())] — 1 on a single-core
    machine — for games deep enough to split ([depth_hint >= 2]) whose
    size estimate [width^depth_hint] reaches 4096 move sequences, where
    [width] is the number of moves a position offers before symmetry
    pruning ([|A| + |B|]); smaller games stay sequential. The floor
    amortizes the fan-out: on a shared 2-core host (OCaml 5.1, release
    build) handing a solve to 2 pooled domains cost about 0.8 ms of
    spawn, hand-off and join, and about 2 ms once the parked domains
    had expired, against 64 µs for the whole sequential solve of the
    2-round 2-pebble game on C_3 vs a 3-element set (estimate
    6^2 = 36). *)
val worker_count : config -> depth_hint:int -> width:int -> moves:int -> int

module Make (G : GAME) : sig
  (** [sequential ~config ~budget ctx] is the kernel's sequential value
      function, over one memo table that lives as long as it (capped by
      the budget), polling [budget] per call; and its counters.
      [solve_verdict]'s sequential path applies it to the root;
      {!Ef.certify} keeps calling it to walk the memo. *)
  val sequential :
    config:config ->
    budget:Budget.t ->
    G.ctx ->
    (G.pos -> bool) * (unit -> stats)

  (** [solve_verdict ~config ~budget ~depth_hint ~width ctx root] decides
      the game from [root]: [Equivalent] or [Distinguished], or
      [Gave_up reason] when the budget ran out first. Stats are returned
      in every case. [depth_hint] (the round count) and [width] (the
      moves a position offers before symmetry pruning) gate the
      parallel fan-out through {!worker_count} — a 0-depth game is
      never fanned out. Positions up to 3 moves below the root publish
      their obligations as stealable tasks. Exceptions other than budget
      exhaustion propagate (after every domain is joined). *)
  val solve_verdict :
    config:config ->
    budget:Budget.t ->
    depth_hint:int ->
    width:int ->
    G.ctx ->
    G.pos ->
    verdict * stats
end
