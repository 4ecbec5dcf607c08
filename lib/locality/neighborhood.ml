module Structure = Fmtk_structure.Structure
module Signature = Fmtk_logic.Signature
module Iso = Fmtk_structure.Iso
module Slice_tbl = Fmtk_structure.Slice_tbl
module Budget = Fmtk_runtime.Budget
module Shard = Fmtk_runtime.Shard

(* ---- Type registry ---- *)

(* Cap on serialization-cache entries (registry-global and per census
   worker). Balls of genuinely diverse shape stop being cached past the
   cap and pay the exact-iso path instead — bounded memory, same
   answers. *)
let serial_cap = 200_000

type registry = {
  bucketing : bool;
  (* invariant key -> type ids sharing it *)
  buckets : (string, int list ref) Hashtbl.t;
  (* Growable array of representatives, indexed by type id: O(1) lookup
     where the old newest-first list cost O(count) per [representative]
     call — called once per candidate in every iso test. Slots >= count
     are padding (duplicates of earlier entries). *)
  mutable reps : Structure.t array;
  mutable count : int;
  mutable iso_tests : int;
  (* Streaming-census serialization cache: ball serialization -> type
     id. Sound (equal serializations are isomorphic) but not complete —
     misses fall back to exact [type_id]. Keys are only comparable
     between structures of equal signature; [serial_sig] guards. Probed
     with the walker's key buffer ({!Gaifman.serialized}), so a hit
     allocates nothing. *)
  serial : Slice_tbl.t;
  mutable serial_sig : Signature.t option;
  mutable serial_hits : int;
}

let create_registry ?(bucketing = true) () =
  {
    bucketing;
    buckets = Hashtbl.create 64;
    reps = [||];
    count = 0;
    iso_tests = 0;
    serial = Slice_tbl.create ();
    serial_sig = None;
    serial_hits = 0;
  }

let registry_size reg = reg.count
let iso_tests reg = reg.iso_tests
let serial_hits reg = reg.serial_hits

let representative reg id =
  if id < 0 || id >= reg.count then invalid_arg "Neighborhood: bad type id";
  reg.reps.(id)

let register reg nb =
  let id = reg.count in
  if id = Array.length reg.reps then begin
    (* Double the capacity, using the new element as padding. *)
    let grown = Array.make (max 8 (2 * id)) nb in
    Array.blit reg.reps 0 grown 0 id;
    reg.reps <- grown
  end;
  reg.reps.(id) <- nb;
  reg.count <- id + 1;
  id

let type_id reg nb =
  let matches candidate_ids =
    List.find_opt
      (fun id ->
        reg.iso_tests <- reg.iso_tests + 1;
        Iso.isomorphic (representative reg id) nb)
      candidate_ids
  in
  if reg.bucketing then (
    let key = Iso.invariant_key nb in
    let bucket =
      match Hashtbl.find_opt reg.buckets key with
      | Some b -> b
      | None ->
          let b = ref [] in
          Hashtbl.add reg.buckets key b;
          b
    in
    match matches !bucket with
    | Some id -> id
    | None ->
        let id = register reg nb in
        bucket := id :: !bucket;
        id)
  else
    match matches (List.init reg.count Fun.id) with
    | Some id -> id
    | None -> register reg nb

(* ---- The census ----

   Every element runs one body: walk its radius-r ball (Gaifman's
   walker, O(ball)), then — where the ball's serialization describes it
   — probe the serialization cache, and on a miss build the
   neighborhood and resolve it through [type_id]. Equal serializations
   are isomorphic balls, so a cache hit returns the id [type_id] would;
   mismatched serializations of isomorphic balls merely miss and pay one
   exact [type_id]. Census ids and counts are therefore the same with or
   without the cache.

   Sharding: contiguous vertex ranges, one walker and one fresh local
   registry (and serialization cache) per worker, merged in range order
   afterwards — global ids are assigned at each type's first realizing
   element, which is the same order the sequential pass uses, so results
   are byte-identical for every worker count. *)

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
let element_type ~radius ~cache ~probe w reg v =
  ignore (Gaifman.walk w radius [ v ]);
  if not cache then type_id reg (Gaifman.build_neighborhood w)
  else
    let len = Gaifman.serialize w in
    let hit = probe (Gaifman.serialized w) len in
    if hit <> -1 then hit
    else
      let id = type_id reg (Gaifman.build_neighborhood w) in
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
      types.(v) <- element_type ~radius ~cache:use_cache ~probe w0 reg v
    done;
    types
  end
  else begin
    (* Worker w owns [w*chunk, min n ((w+1)*chunk)) with a fresh local
       registry and cache. Element results are encoded in [types]:
       >= 0 is a local type id; <= -2 encodes global id [-v - 2] (a hit
       in the shared read-only cache, which only holds ids from earlier
       completed calls). *)
    let locals = Array.init w (fun _ -> create_registry ~bucketing:true ()) in
    Shard.ranges ~workers:w ~budget ~n (fun poller ~stop ~idx ~lo ~hi ->
        let lreg = locals.(idx) in
        let wk = Gaifman.walker t in
        let probe key len =
          let gid = if use_cache then Slice_tbl.find reg.serial key 0 len else -1 in
          if gid >= 0 then -gid - 2 else Slice_tbl.find lreg.serial key 0 len
        in
        let v = ref lo in
        while !v < hi && not (stop ()) do
          Budget.check poller;
          types.(!v) <- element_type ~radius ~cache:serial ~probe wk lreg !v;
          incr v
        done);
    (* Merge in range order: global ids are assigned at each type's
       first realizing element, reproducing the sequential order. *)
    for idx = 0 to w - 1 do
      let lreg = locals.(idx) in
      let lo = idx * chunk and hi = min n ((idx + 1) * chunk) in
      if lo < hi then begin
        let map = Array.make (max lreg.count 1) (-1) in
        for v = lo to hi - 1 do
          let enc = types.(v) in
          if enc <= -2 then types.(v) <- -enc - 2
          else begin
            if map.(enc) < 0 then
              map.(enc) <- type_id reg (representative lreg enc);
            types.(v) <- map.(enc)
          end
        done;
        if use_cache then
          Slice_tbl.iter lreg.serial (fun key off len lid ->
              if
                map.(lid) >= 0
                && Slice_tbl.length reg.serial < serial_cap
                && Slice_tbl.find reg.serial key off len < 0
              then Slice_tbl.replace reg.serial key off len map.(lid))
      end
    done;
    types
  end

let census ?workers ?budget reg t ~radius =
  let types = element_types ?workers ?budget reg t ~radius in
  let counts = Array.make reg.count 0 in
  Array.iter (fun id -> counts.(id) <- counts.(id) + 1) types;
  let realized = ref [] in
  for id = reg.count - 1 downto 0 do
    if counts.(id) > 0 then realized := (id, counts.(id)) :: !realized
  done;
  !realized
