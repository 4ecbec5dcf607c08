module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Signature = Fmtk_logic.Signature
module Io_fault = Fmtk_runtime.Io_fault

type sync_policy = Always | Interval of int | Never

let sync_policy_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | s -> (
      match String.index_opt s ':' with
      | Some i when String.sub s 0 i = "interval" -> (
          let n = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt n with
          | Some n when n >= 1 -> Ok (Interval n)
          | _ -> Error (Printf.sprintf "bad sync interval %S" n))
      | _ ->
          Error
            (Printf.sprintf
               "unknown sync policy %S (expected always, interval:N or never)" s))

let sync_policy_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval n -> Printf.sprintf "interval:%d" n

type put_error = Full of string | Too_large of string | Io of string

let put_error_to_string = function Full m | Too_large m | Io m -> m

type recovery = {
  snapshot_records : int;
  journal_records : int;
  torn_bytes : int;
  recovery_ms : float;
}

type durability_stats = {
  data_dir : string;
  sync : sync_policy;
  journaled : int;
  journal_bytes : int;
  compactions : int;
  recovered : recovery;
}

type dur = {
  dir : string;
  writer : Journal.writer;
  policy : sync_policy;
  snapshot_threshold : int;
  inject : Io_fault.t option;
  recovered : recovery;
  mutable unsynced : int;
  mutable total : int; (* mutations journaled since open *)
  mutable compactions : int;
  mutable next_compact_at : int;
  mutable broken : string option; (* first IO failure: store is read-only *)
}

type t = {
  mutex : Mutex.t;
  table : (string, Structure.t) Hashtbl.t;
  seqs : (string, int) Hashtbl.t;
      (* per-name mutation sequence, bumped under the mutex on every
         binding change; never removed (even on [remove]) so a name's
         sequence is strictly increasing across its whole lifetime and
         cache entries keyed to an old incarnation can never collide
         with a new one *)
  capacity : int;
  max_size : int;
  dur : dur option;
}

let create ?(capacity = 256) ?(max_size = 100_000) () =
  {
    mutex = Mutex.create ();
    table = Hashtbl.create 64;
    seqs = Hashtbl.create 64;
    capacity = max 1 capacity;
    max_size = max 1 max_size;
    dur = None;
  }

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* Call with the mutex held. *)
let seq_of_locked t name =
  Option.value ~default:0 (Hashtbl.find_opt t.seqs name)

let bump_seq_locked t name =
  let seq = seq_of_locked t name + 1 in
  Hashtbl.replace t.seqs name seq;
  seq

(* ---- recovery ---- *)

let journal_file = "journal.fmtk"

let journal_path ~dir = Filename.concat dir journal_file

let rec mkdir_p dir =
  match Unix.mkdir dir 0o755 with
  | () -> Ok ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> (
      let parent = Filename.dirname dir in
      if parent = dir then
        Error (Printf.sprintf "cannot create data dir %s" dir)
      else
        match mkdir_p parent with
        | Error _ as e -> e
        | Ok () -> (
            match Unix.mkdir dir 0o755 with
            | () -> Ok ()
            | exception Unix.Unix_error (Unix.EEXIST, _, _) -> Ok ()
            | exception Unix.Unix_error (e, _, _) ->
                Error
                  (Printf.sprintf "cannot create data dir %s: %s" dir
                     (Unix.error_message e))))
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot create data dir %s: %s" dir
           (Unix.error_message e))

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let open_durable ?(capacity = 256) ?(max_size = 100_000) ?(sync = Always)
    ?(snapshot_threshold = 64 * 1024 * 1024) ?inject ~dir () =
  let t0 = Unix.gettimeofday () in
  let* () = mkdir_p dir in
  let* snap = Snapshot.load ~dir in
  let table = Hashtbl.create 64 in
  List.iter
    (fun (name, s) ->
      Structure.ensure_indexes s;
      Hashtbl.replace table name s)
    snap;
  let jpath = journal_path ~dir in
  let* rev_records, journal_records, tail =
    match Journal.replay ~path:jpath ~init:[] ~f:(fun acc r -> r :: acc) with
    | Ok v -> Ok v
    | Error e -> Error ("journal " ^ Journal.error_to_string e)
  in
  let* () =
    List.fold_left
      (fun acc r ->
        let* () = acc in
        match r with
        | Journal.Remove { name } ->
            Hashtbl.remove table name;
            Ok ()
        | Journal.Put { name; data } -> (
            match Journal.decode_structure data with
            | Ok s ->
                Structure.ensure_indexes s;
                Hashtbl.replace table name s;
                Ok ()
            | Error e ->
                Error
                  (Printf.sprintf "journal record %S undecodable: %s" name e)))
      (Ok ()) (List.rev rev_records)
  in
  let* writer = Journal.open_append ?inject jpath in
  let finish r =
    match r with
    | Ok _ as ok -> ok
    | Error _ as e ->
        Journal.close writer;
        e
  in
  finish
    (let* torn_bytes =
       match tail with
       | Journal.Clean -> Ok 0
       | Journal.Torn { at; dropped } ->
           let* () = Journal.truncate_to writer at in
           Ok dropped
     in
     let recovered =
       {
         snapshot_records = List.length snap;
         journal_records;
         torn_bytes;
         recovery_ms = (Unix.gettimeofday () -. t0) *. 1000.;
       }
     in
     let snapshot_threshold = max 4096 snapshot_threshold in
     let dur =
       {
         dir;
         writer;
         policy = sync;
         snapshot_threshold;
         inject;
         recovered;
         unsynced = 0;
         total = 0;
         compactions = 0;
         next_compact_at = snapshot_threshold;
         broken = None;
       }
     in
     Ok
       ( {
           mutex = Mutex.create ();
           table;
           seqs = Hashtbl.create 64;
           capacity = max 1 capacity;
           max_size = max 1 max_size;
           dur = Some dur;
         },
         recovered ))

(* ---- journaling helpers (call with the store mutex held) ---- *)

let mark_broken d msg =
  if d.broken = None then d.broken <- Some msg;
  msg

let sync_per_policy d =
  d.unsynced <- d.unsynced + 1;
  let want =
    match d.policy with
    | Always -> true
    | Interval n -> d.unsynced >= n
    | Never -> false
  in
  if not want then Ok ()
  else
    match Journal.sync d.writer with
    | Ok () ->
        d.unsynced <- 0;
        Ok ()
    | Error e -> Error (mark_broken d ("journal sync: " ^ e))

(* Rewrite the snapshot from the live table and truncate the journal.
   On failure the journal is intact, so nothing is lost; back off so a
   persistently failing disk does not turn every put into a snapshot
   attempt. *)
let compact_locked t d =
  let entries =
    Hashtbl.fold (fun name s acc -> (name, s) :: acc) t.table []
  in
  match Snapshot.write ~dir:d.dir ?inject:d.inject entries with
  | Error _ as e ->
      d.next_compact_at <- (2 * Journal.size d.writer) + d.snapshot_threshold;
      e
  | Ok () -> (
      match Journal.reset d.writer with
      | Error e ->
          (* Snapshot landed but the journal could not be truncated:
             replay is idempotent over the snapshot, so stale journal
             records are harmless; the next open just replays them. *)
          d.next_compact_at <-
            (2 * Journal.size d.writer) + d.snapshot_threshold;
          Error (mark_broken d ("journal truncate: " ^ e))
      | Ok () ->
          d.compactions <- d.compactions + 1;
          d.unsynced <- 0;
          d.next_compact_at <- d.snapshot_threshold;
          Ok ())

let maybe_compact t d =
  if Journal.size d.writer >= d.next_compact_at then
    ignore (compact_locked t d : (unit, string) result)

let journal_mutation d record =
  match d.broken with
  | Some msg -> Error ("journal broken (read-only store): " ^ msg)
  | None -> (
      match Journal.append d.writer record with
      | Error e -> Error (mark_broken d ("journal append: " ^ e))
      | Ok () ->
          let* () = sync_per_policy d in
          d.total <- d.total + 1;
          Ok ())

(* ---- mutations ---- *)

let max_tuples = 1_000_000

let admit t ~size ~tuples =
  if size > t.max_size then
    Error
      (Too_large
         (Printf.sprintf "structure too large (%d elements, cap %d)" size
            t.max_size))
  else if tuples > max_tuples then
    Error
      (Too_large
         (Printf.sprintf "structure too large (%d tuples, cap %d)" tuples
            max_tuples))
  else Ok ()

let put t ~name s =
  let admitted =
    admit t ~size:(Structure.size s) ~tuples:(Structure.tuple_count s)
  in
  if Result.is_error admitted then admitted
  else begin
    (* Index and serialize outside the lock: both are the expensive
       part, and the structure is not yet shared. *)
    Structure.ensure_indexes s;
    let data =
      match t.dur with
      | None -> ""
      | Some _ -> Journal.encode_structure s
    in
    locked t (fun () ->
        if
          Hashtbl.length t.table >= t.capacity
          && not (Hashtbl.mem t.table name)
        then
          Error
            (Full
               (Printf.sprintf "store full (%d structures, cap %d)"
                  (Hashtbl.length t.table) t.capacity))
        else
          let* () =
            match t.dur with
            | None -> Ok ()
            | Some d -> (
                match journal_mutation d (Journal.Put { name; data }) with
                | Ok () -> Ok ()
                | Error e -> Error (Io e))
          in
          Hashtbl.replace t.table name s;
          ignore (bump_seq_locked t name : int);
          Option.iter (maybe_compact t) t.dur;
          Ok ())
  end

(* Single-tuple mutation: read-modify-write under the store mutex, so
   concurrent updates to the same name serialize. The new structure value
   is journaled like a [put] (full image — incremental journal records
   are future work), and returned together with the name's new sequence
   number so callers can re-bind caches keyed by structure identity and
   apply deltas in commit order even though they run outside this
   critical section. *)
let update t ~name ~rel tup ~add =
  locked t (fun () ->
      match Hashtbl.find_opt t.table name with
      | None ->
          Error (`Unknown (Printf.sprintf "no structure named %S" name))
      | Some s -> (
          let sg = Structure.signature s in
          match List.assoc_opt rel (Signature.rels sg) with
          | None ->
              Error
                (`Invalid
                   (Printf.sprintf "no relation %S in %S's signature" rel name))
          | Some arity ->
              if Array.length tup <> arity then
                Error
                  (`Invalid
                     (Printf.sprintf
                        "relation %S has arity %d, got a %d-tuple" rel arity
                        (Array.length tup)))
              else if
                Array.exists (fun v -> v < 0 || v >= Structure.size s) tup
              then
                Error
                  (`Invalid
                     (Printf.sprintf
                        "tuple coordinates must lie in [0,%d)"
                        (Structure.size s)))
              else
                let cur = Structure.rel s rel in
                let changed =
                  if add then not (Tuple.Set.mem tup cur)
                  else Tuple.Set.mem tup cur
                in
                if not changed then Ok (s, false, seq_of_locked t name)
                else begin
                  let tuples =
                    if add then Tuple.Set.add tup cur
                    else Tuple.Set.remove tup cur
                  in
                  let s' = Structure.with_rel s rel arity tuples in
                  Structure.ensure_indexes s';
                  let* () =
                    match t.dur with
                    | None -> Ok ()
                    | Some d -> (
                        match
                          journal_mutation d
                            (Journal.Put
                               { name; data = Journal.encode_structure s' })
                        with
                        | Ok () -> Ok ()
                        | Error e -> Error (`Io e))
                  in
                  Hashtbl.replace t.table name s';
                  let seq = bump_seq_locked t name in
                  Option.iter (maybe_compact t) t.dur;
                  Ok (s', true, seq)
                end))

let remove t name =
  locked t (fun () ->
      if not (Hashtbl.mem t.table name) then Ok false
      else
        let* () =
          match t.dur with
          | None -> Ok ()
          | Some d -> journal_mutation d (Journal.Remove { name })
        in
        Hashtbl.remove t.table name;
        Option.iter (maybe_compact t) t.dur;
        Ok true)

(* ---- reads ---- *)

let get t name = locked t (fun () -> Hashtbl.find_opt t.table name)

let get_seq t name =
  locked t (fun () ->
      Option.map
        (fun s -> (s, seq_of_locked t name))
        (Hashtbl.find_opt t.table name))

let names t =
  locked t (fun () ->
      Hashtbl.fold (fun k s acc -> (k, Structure.size s) :: acc) t.table [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let count t = locked t (fun () -> Hashtbl.length t.table)

(* ---- durability surface ---- *)

let compact t =
  locked t (fun () ->
      match t.dur with
      | None -> Error "store is not durable"
      | Some d -> compact_locked t d)

let durability_stats t =
  locked t (fun () ->
      Option.map
        (fun d ->
          {
            data_dir = d.dir;
            sync = d.policy;
            journaled = d.total;
            journal_bytes = Journal.size d.writer;
            compactions = d.compactions;
            recovered = d.recovered;
          })
        t.dur)

let close t =
  locked t (fun () ->
      match t.dur with
      | None -> ()
      | Some d ->
          if d.broken = None && d.unsynced > 0 then
            ignore (Journal.sync d.writer : (unit, string) result);
          Journal.close d.writer;
          d.broken <- Some "store closed")
