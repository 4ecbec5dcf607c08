module Formula = Fmtk_logic.Formula
module Signature = Fmtk_logic.Signature
module Parser = Fmtk_logic.Parser
module Structure = Fmtk_structure.Structure
module Compiled = Fmtk_eval.Compiled

type compiled_entry = {
  compiled : Compiled.t;
  entry_lock : Mutex.t;
  bound_to : Structure.t; (* physical identity of the compiled-against value *)
}

type t = {
  mutex : Mutex.t;
  parsed : (string, (Formula.t, string) result) Hashtbl.t;
  compiled : (string * string, compiled_entry) Hashtbl.t;
      (* (store name, formula text) *)
  capacity : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let create ?(capacity = 512) () =
  {
    mutex = Mutex.create ();
    parsed = Hashtbl.create 64;
    compiled = Hashtbl.create 64;
    capacity = max 1 capacity;
    hits = Atomic.make 0;
    misses = Atomic.make 0;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let sig_key sg =
  Format.asprintf "%a" Signature.pp sg

let formula t sg text =
  let key = sig_key sg ^ "\x00" ^ text in
  match locked t (fun () -> Hashtbl.find_opt t.parsed key) with
  | Some r -> r
  | None ->
      let r =
        match Parser.parse text with
        | Error e -> Error e
        | Ok phi ->
            (* Vocabulary errors are cached too, so workers never pay
               compilation to discover them. *)
            Result.map (fun () -> phi) (Formula.check sg phi)
      in
      locked t (fun () ->
          if Hashtbl.length t.parsed >= t.capacity then Hashtbl.reset t.parsed;
          Hashtbl.replace t.parsed key r);
      r

let with_compiled t ~sname s text phi f =
  let key = (sname, text) in
  let entry =
    match locked t (fun () -> Hashtbl.find_opt t.compiled key) with
    | Some e when e.bound_to == s ->
        Atomic.incr t.hits;
        e
    | _ ->
        (* Miss, or the name was rebound to a new structure since the
           entry was cached: (re)compile outside the cache lock. *)
        Atomic.incr t.misses;
        let e =
          { compiled = Compiled.compile s phi;
            entry_lock = Mutex.create ();
            bound_to = s }
        in
        locked t (fun () ->
            if Hashtbl.length t.compiled >= t.capacity then
              Hashtbl.reset t.compiled;
            Hashtbl.replace t.compiled key e);
        e
  in
  Mutex.lock entry.entry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock entry.entry_lock)
    (fun () -> f entry.compiled)

let invalidate t ~sname =
  locked t (fun () ->
      let stale =
        Hashtbl.fold
          (fun ((n, _) as k) _ acc -> if n = sname then k :: acc else acc)
          t.compiled []
      in
      List.iter (Hashtbl.remove t.compiled) stale)

let hits t = Atomic.get t.hits

let misses t = Atomic.get t.misses
