module Structure = Fmtk_structure.Structure
module Signature = Fmtk_logic.Signature
module Iso = Fmtk_structure.Iso
module Slice_tbl = Fmtk_structure.Slice_tbl
module Budget = Fmtk_runtime.Budget
module Shard = Fmtk_runtime.Shard

(* ---- Type registry ---- *)

(* Cap on serialization-cache entries (registry-global and per census
   worker). Balls of genuinely diverse shape stop being cached past the
   cap and pay a canonical form instead — bounded memory, same
   answers. *)
let serial_cap = 200_000

type registry = {
  certs : Slice_tbl.t;  (* canonical form -> type id, by first occurrence *)
  mutable reps : Structure.t array;  (* by type id, padded past the count *)
  mutable iso_tests : int;  (* canonical forms computed *)
  (* Streaming-census serialization cache: ball serialization -> type
     id. Sound (equal serializations are isomorphic) but not complete —
     misses fall back to a canonical form. Keys are only comparable
     between structures of equal signature; [serial_sig] guards. Probed
     with the walker's key buffer ({!Gaifman.serialized}), so a hit
     allocates nothing. *)
  serial : Slice_tbl.t;
  mutable serial_sig : Signature.t option;
  mutable serial_hits : int;
}

let create_registry () =
  {
    certs = Slice_tbl.create ();
    reps = [||];
    iso_tests = 0;
    serial = Slice_tbl.create ();
    serial_sig = None;
    serial_hits = 0;
  }

let registry_size reg = Slice_tbl.length reg.certs
let iso_tests reg = reg.iso_tests
let serial_hits reg = reg.serial_hits

let representative reg id =
  if id < 0 || id >= registry_size reg then invalid_arg "Neighborhood: bad type id";
  reg.reps.(id)

(* The id of the type whose canonical form is the slice, registering it
   with representative [nb] if new. *)
let intern reg cert off len nb =
  let count = registry_size reg in
  let id = Slice_tbl.intern reg.certs cert off len in
  if id = count then begin
    (* Double the capacity, using the new element as padding. *)
    if id = Array.length reg.reps then reg.reps <- Array.append reg.reps (Array.make (max 8 id) nb);
    reg.reps.(id) <- nb
  end;
  id

let resolve ~budget reg nb =
  let cert = Iso.canonical ~budget nb in
  reg.iso_tests <- reg.iso_tests + 1;
  intern reg cert 0 (Array.length cert) nb

let type_id reg nb = resolve ~budget:Budget.unlimited reg nb

(* ---- The census ----

   Every element runs one body: walk its radius-r ball (Gaifman's
   walker, O(ball)), then — where the ball's serialization describes it
   — probe the serialization cache, and on a miss build the
   neighborhood and resolve it by its canonical form. Equal
   serializations are isomorphic balls, so a cache hit returns the id
   the canonical form would; mismatched serializations of isomorphic
   balls merely miss and pay one canonical form. Census ids and counts
   are therefore the same with or without the cache.

   Sharding: contiguous vertex ranges, one walker and one fresh local
   registry (and serialization cache) per worker, merged in range order
   afterwards by canonical form — global ids are assigned at each
   type's first realizing element, which is the same order the
   sequential pass uses, so results are byte-identical for every worker
   count. *)

(* Whether the registry's serialization cache speaks this signature. *)
let serial_usable reg sg =
  match reg.serial_sig with
  | None ->
      reg.serial_sig <- Some sg;
      true
  | Some sg' -> Signature.equal sg' sg

(* The per-element body. [cache]: serialize the ball into the walker's
   key buffer, try [probe] on that slice (an id, or -1 on a miss), and
   remember misses in [reg]'s cache. *)
let element_type ~radius ~cache ~probe ~budget w reg v =
  ignore (Gaifman.walk w radius [ v ]);
  if not cache then resolve ~budget reg (Gaifman.build_neighborhood w)
  else
    let len = Gaifman.serialize w in
    let hit = probe (Gaifman.serialized w) len in
    if hit <> -1 then hit
    else
      let id = resolve ~budget reg (Gaifman.build_neighborhood w) in
      if Slice_tbl.length reg.serial < serial_cap then
        Slice_tbl.replace reg.serial (Gaifman.serialized w) 0 len id;
      id

let element_types ?(workers = 1) ?(budget = Budget.unlimited) reg t ~radius =
  let n = Structure.size t in
  let types = Array.make n 0 in
  (* Built here, before any worker domain is spawned: the walker forces
     [t]'s cached Gaifman rows and indexes. *)
  let w0 = Gaifman.walker t in
  let serial = Gaifman.serializable w0 in
  let use_cache = serial && serial_usable reg (Structure.signature t) in
  let w, chunk = Shard.plan ~workers ~n in
  if w <= 1 then begin
    (* Sequential: resolve against the registry and its cache directly. *)
    let poller = Budget.poller budget in
    let probe key len =
      let hit = Slice_tbl.find reg.serial key 0 len in
      if hit >= 0 then reg.serial_hits <- reg.serial_hits + 1;
      hit
    in
    for v = 0 to n - 1 do
      Budget.check poller;
      types.(v) <- element_type ~radius ~cache:use_cache ~probe ~budget w0 reg v
    done;
    types
  end
  else begin
    (* Worker w owns [w*chunk, min n ((w+1)*chunk)) with a fresh local
       registry and cache. Element results are encoded in [types]:
       >= 0 is a local type id; <= -2 encodes global id [-v - 2] (a hit
       in the shared read-only cache, which only holds ids from earlier
       completed calls). *)
    let locals = Array.init w (fun _ -> create_registry ()) in
    Shard.ranges ~workers:w ~budget ~n (fun poller ~stop ~idx ~lo ~hi ->
        let lreg = locals.(idx) in
        let wk = Gaifman.walker t in
        let probe key len =
          let gid = if use_cache then Slice_tbl.find reg.serial key 0 len else -1 in
          let hit = if gid >= 0 then -gid - 2 else Slice_tbl.find lreg.serial key 0 len in
          if hit <> -1 then lreg.serial_hits <- lreg.serial_hits + 1;
          hit
        in
        let v = ref lo in
        while !v < hi && not (stop ()) do
          Budget.check poller;
          types.(!v) <- element_type ~radius ~cache:serial ~probe ~budget wk lreg !v;
          incr v
        done);
    (* Merge in range order: local ids number a range's types by their
       first realizing element, so interning their canonical forms in
       local id order assigns global ids in the sequential order. *)
    for idx = 0 to w - 1 do
      let lreg = locals.(idx) in
      let lo = idx * chunk and hi = min n ((idx + 1) * chunk) in
      let map = Array.make (registry_size lreg) 0 in
      Slice_tbl.iter lreg.certs (fun cert off len lid ->
          map.(lid) <- intern reg cert off len lreg.reps.(lid));
      for v = lo to hi - 1 do
        let enc = types.(v) in
        types.(v) <- (if enc <= -2 then -enc - 2 else map.(enc))
      done;
      if use_cache then
        Slice_tbl.iter lreg.serial (fun key off len lid ->
            if Slice_tbl.length reg.serial < serial_cap && Slice_tbl.find reg.serial key off len < 0
            then Slice_tbl.replace reg.serial key off len map.(lid));
      reg.iso_tests <- reg.iso_tests + lreg.iso_tests;
      reg.serial_hits <- reg.serial_hits + lreg.serial_hits
    done;
    types
  end

let census ?workers ?budget reg t ~radius =
  let types = element_types ?workers ?budget reg t ~radius in
  let counts = Array.make (registry_size reg) 0 in
  Array.iter (fun id -> counts.(id) <- counts.(id) + 1) types;
  let realized = ref [] in
  for id = registry_size reg - 1 downto 0 do
    if counts.(id) > 0 then realized := (id, counts.(id)) :: !realized
  done;
  !realized
