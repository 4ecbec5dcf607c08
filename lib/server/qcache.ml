module Formula = Fmtk_logic.Formula
module Signature = Fmtk_logic.Signature
module Parser = Fmtk_logic.Parser
module Structure = Fmtk_structure.Structure
module Compiled = Fmtk_eval.Compiled
module Algebra = Fmtk_db.Algebra
module Compile = Fmtk_db.Compile
module Delta = Fmtk_db.Delta

(* A table of at most [capacity] keys that evicts the least recently used
   one. Every [find] renews its key's stamp and [order] maps each live
   stamp back to its key, so the victim is the minimum binding and the
   bookkeeping is exactly one binding per key, however often keys are
   removed and re-added. Unsynchronized: the cache calls it under its
   mutex. *)
module Lru = struct
  module Order = Map.Make (Int)

  type 'v slot = { value : 'v; mutable stamp : int }

  type ('k, 'v) t = {
    items : ('k, 'v slot) Hashtbl.t;
    mutable order : 'k Order.t;
    mutable clock : int;
    capacity : int;
  }

  let create capacity =
    { items = Hashtbl.create 64; order = Order.empty; clock = 0; capacity }

  let stamp t key slot =
    t.clock <- t.clock + 1;
    slot.stamp <- t.clock;
    t.order <- Order.add t.clock key t.order

  let find t key =
    Option.map
      (fun slot ->
        t.order <- Order.remove slot.stamp t.order;
        stamp t key slot;
        slot.value)
      (Hashtbl.find_opt t.items key)

  let remove t key =
    Option.iter
      (fun slot ->
        Hashtbl.remove t.items key;
        t.order <- Order.remove slot.stamp t.order)
      (Hashtbl.find_opt t.items key)

  let add t key value =
    remove t key;
    if Hashtbl.length t.items >= t.capacity then
      Option.iter
        (fun (_, victim) -> remove t victim)
        (Order.min_binding_opt t.order);
    let slot = { value; stamp = 0 } in
    Hashtbl.replace t.items key slot;
    stamp t key slot

  let filter t p =
    Hashtbl.fold
      (fun k s acc -> if p k then (k, s.value) :: acc else acc)
      t.items []
end

type kind = [ `Compiled | `Plan ]

type artifact =
  | Closure of Compiled.t
  | Plan of { delta : Delta.t; vars : string list }

type entry = {
  artifact : artifact;
  lock : Mutex.t;
  mutable bound_to : Structure.t;
      (* physical identity of the structure value the artifact describes;
         [apply_update] advances it for plans. Both mutable fields are
         read and written only under [lock]. *)
  mutable bound_seq : int;
      (* plans: the store's per-name mutation sequence of [bound_to];
         [apply_update] applies exactly the delta numbered
         [bound_seq + 1] *)
}

type t = {
  mutex : Mutex.t;
  parsed : (string, (Formula.t, string) result) Lru.t;
  entries : (string * string * kind, entry) Lru.t;
      (* (store name, formula text, kind) *)
  hits : int Atomic.t array; (* indexed by [index kind] *)
  misses : int Atomic.t array;
  maintained : int Atomic.t;
}

let index = function `Compiled -> 0 | `Plan -> 1

let create ?(capacity = 512) () =
  let capacity = max 1 capacity in
  {
    mutex = Mutex.create ();
    parsed = Lru.create capacity;
    entries = Lru.create capacity;
    hits = Array.init 2 (fun _ -> Atomic.make 0);
    misses = Array.init 2 (fun _ -> Atomic.make 0);
    maintained = Atomic.make 0;
  }

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let locked t f = with_lock t.mutex f

let sig_key sg = Format.asprintf "%a" Signature.pp sg

let formula t sg text =
  let key = sig_key sg ^ "\x00" ^ text in
  match locked t (fun () -> Lru.find t.parsed key) with
  | Some r -> r
  | None ->
      let r =
        match Parser.parse text with
        | Error e -> Error e
        | Ok phi -> Result.map (fun () -> phi) (Formula.check sg phi)
      in
      locked t (fun () -> Lru.add t.parsed key r);
      r

(* [use] the entry under [key] when it is bound to [s], counting the probe
   as a hit or a miss. The identity check and [use] share one critical
   section of the entry's lock, so what is served is exactly what the
   check validated. *)
let probe t ((_, _, kind) as key) s use =
  let found =
    match locked t (fun () -> Lru.find t.entries key) with
    | None -> None
    | Some e ->
        with_lock e.lock (fun () ->
            if e.bound_to == s then Some (use e.artifact) else None)
  in
  Atomic.incr (if Option.is_some found then t.hits else t.misses).(index kind);
  found

(* The one insertion path: publish a fresh entry bound to [(s, seq)] and
   [use] it under its lock (a concurrent [apply_update] may already see
   it). *)
let insert t key s ~seq artifact use =
  let e = { artifact; lock = Mutex.create (); bound_to = s; bound_seq = seq } in
  locked t (fun () -> Lru.add t.entries key e);
  with_lock e.lock (fun () -> use e.artifact)

(* Keys carry their artifact's kind, so the other constructor never
   reaches a [use]. *)
let with_compiled t ~sname s text phi f =
  let key = (sname, text, `Compiled) in
  let use = function Closure c -> f c | Plan _ -> assert false in
  match probe t key s use with
  | Some v -> v
  | None -> insert t key s ~seq:0 (Closure (Compiled.compile s phi)) use

let with_result ?budget t ~sname ~seq s text phi f =
  let key = (sname, text, `Plan) in
  let use = function
    | Plan p -> f p.vars (Delta.result p.delta)
    | Closure _ -> assert false
  in
  match probe t key s use with
  | Some v -> Ok v
  | None ->
      let vars = Formula.free_vars phi in
      let db = Algebra.Database.of_structure s in
      Delta.materialize ?budget db (Algebra.Project (vars, Compile.compile phi))
      |> Result.map (fun delta ->
             insert t key s ~seq (Plan { delta; vars }) use)

let entries_of t sname = Lru.filter t.entries (fun (n, _, _) -> n = sname)

let invalidate t ~sname =
  locked t (fun () ->
      List.iter (fun (key, _) -> Lru.remove t.entries key) (entries_of t sname))

(* Concurrent updates to one name can reach a plan in any order; [seq]
   (assigned under the store mutex, so sequence order is commit order)
   restores the order per plan:

   - [seq <= bound_seq]: already reflected (the plan was built from, or
     maintained past, a state that includes this update) — skip it,
     applying it again would double-count;
   - [seq = bound_seq + 1]: the next committed delta — apply it;
   - [seq > bound_seq + 1]: a delta this plan never saw was committed in
     between — drop the plan; the next eval rebuilds it.

   A plan whose propagation fails (budget exhaustion mid-delta leaves its
   counts torn) is dropped too. *)
let apply_update ?budget t ~sname ~seq s' ~rel tup ~add =
  let plans =
    locked t (fun () ->
        List.filter_map
          (fun (key, e) ->
            match e.artifact with
            | Closure _ ->
                Lru.remove t.entries key;
                None
            | Plan p -> Some (key, e, p.delta))
          (entries_of t sname))
  in
  List.iter
    (fun (key, e, delta) ->
      with_lock e.lock (fun () ->
          let applied () =
            match Delta.update ?budget delta ~rel tup ~add with
            | Ok () -> true
            | Error _ | (exception Fmtk_runtime.Budget.Exhausted _) -> false
          in
          if seq <= e.bound_seq then ()
          else if seq = e.bound_seq + 1 && applied () then begin
            e.bound_to <- s';
            e.bound_seq <- seq;
            Atomic.incr t.maintained
          end
          else locked t (fun () -> Lru.remove t.entries key)))
    plans

let count a = function
  | Some kind -> Atomic.get a.(index kind)
  | None -> Array.fold_left (fun n c -> n + Atomic.get c) 0 a

let hits ?kind t = count t.hits kind

let misses ?kind t = count t.misses kind

let maintained t = Atomic.get t.maintained
