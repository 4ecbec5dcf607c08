module Signature = Fmtk_logic.Signature
module SMap = Map.Make (String)

(* A relation is stored either as a generic tuple set or — for binary
   relations past [csr_auto_threshold] tuples, or when built through
   [of_graph] — as CSR adjacency rows (see Csr). The CSR side keeps a
   lazily materialized tuple-set view so [rel] stays total; everything
   on a hot path ([mem], [probe], [iter_rel2], the Gaifman adjacency)
   reads the rows directly. *)
type rel_repr =
  | Rset of Tuple.Set.t
  | Rcsr of csr_rel

and csr_rel = { csr : Csr.t; mutable set_view : Tuple.Set.t option }

type t = {
  signature : Signature.t;
  size : int;
  rels : rel_repr SMap.t;
  consts : int SMap.t;
  (* Lazily built per-relation membership indexes (see Index). Every
     constructor/derivation starts from an empty cache, except [edit],
     which keeps those of the relations it did not touch — a derived
     structure must never inherit indexes of relations it changed. *)
  mutable indexes : Index.t SMap.t;
  (* Lazily built symmetric Gaifman adjacency (see gaifman_csr). *)
  mutable gaifman : Csr.t option;
}

(* Binary relations at least this many tuples wide are auto-converted
   to CSR rows by [make]/[with_rel]: below it the generic set is
   compact enough and keeps derivations allocation-free; above it the
   per-tuple boxing dominates. *)
let csr_auto_threshold = 4096

let create ~signature ~size ~rels ~consts =
  { signature; size; rels; consts; indexes = SMap.empty; gaifman = None }

let check_tuple name size arity tup =
  if Array.length tup <> arity then
    invalid_arg
      (Printf.sprintf "Structure: tuple %s for %S has arity %d, expected %d"
         (Tuple.to_string tup) name (Array.length tup) arity);
  Array.iter
    (fun e ->
      if e < 0 || e >= size then
        invalid_arg
          (Printf.sprintf "Structure: element %d of %S outside domain [0,%d)"
             e name size))
    tup

(* Pick the storage for a validated tuple set. *)
let repr_of_set ~size ~arity set =
  if arity = 2 && Tuple.Set.cardinal set >= csr_auto_threshold then
    Rcsr { csr = Csr.of_tuple_set ~n:size set; set_view = None }
  else Rset set

let set_of_repr = function
  | Rset s -> s
  | Rcsr r -> (
      match r.set_view with
      | Some s -> s
      | None ->
          let acc = ref Tuple.Set.empty in
          Csr.iter_edges r.csr (fun u v ->
              acc := Tuple.Set.add [| u; v |] !acc);
          r.set_view <- Some !acc;
          !acc)

let repr_cardinal = function
  | Rset s -> Tuple.Set.cardinal s
  | Rcsr r -> Csr.edge_count r.csr

let iter_repr f = function
  | Rset s -> Tuple.Set.iter f s
  | Rcsr r -> Csr.iter_edges r.csr (fun u v -> f [| u; v |])

let make sg ~size ?(consts = []) rel_tuples =
  if size < 0 then invalid_arg "Structure.make: negative size";
  List.iter
    (fun (name, _) ->
      if not (Signature.mem_rel sg name) then
        invalid_arg (Printf.sprintf "Structure.make: undeclared relation %S" name))
    rel_tuples;
  let rels =
    List.fold_left
      (fun acc (name, arity) ->
        let tuples =
          match List.assoc_opt name rel_tuples with
          | None -> Tuple.Set.empty
          | Some ts ->
              List.iter (check_tuple name size arity) ts;
              Tuple.Set.of_list ts
        in
        SMap.add name (repr_of_set ~size ~arity tuples) acc)
      SMap.empty (Signature.rels sg)
  in
  let consts_map =
    List.fold_left
      (fun acc name ->
        match List.assoc_opt name consts with
        | None ->
            invalid_arg
              (Printf.sprintf "Structure.make: constant %S uninterpreted" name)
        | Some e ->
            if e < 0 || e >= size then
              invalid_arg
                (Printf.sprintf "Structure.make: constant %S -> %d outside domain"
                   name e);
            SMap.add name e acc)
      SMap.empty (Signature.consts sg)
  in
  create ~signature:sg ~size ~rels ~consts:consts_map

let of_graph sg ~size ?(consts = []) rel_edges =
  if size < 0 then invalid_arg "Structure.of_graph: negative size";
  List.iter
    (fun (name, _) ->
      if not (Signature.mem_rel sg name) then
        invalid_arg
          (Printf.sprintf "Structure.of_graph: undeclared relation %S" name)
      else if Signature.arity sg name <> 2 then
        invalid_arg
          (Printf.sprintf "Structure.of_graph: relation %S is not binary" name))
    rel_edges;
  let rels =
    List.fold_left
      (fun acc (name, _arity) ->
        let repr =
          match List.assoc_opt name rel_edges with
          | None -> Rset Tuple.Set.empty
          | Some edges ->
              Rcsr { csr = Csr.of_edges ~n:size edges; set_view = None }
        in
        SMap.add name repr acc)
      SMap.empty (Signature.rels sg)
  in
  let consts_map =
    List.fold_left
      (fun acc name ->
        match List.assoc_opt name consts with
        | None ->
            invalid_arg
              (Printf.sprintf "Structure.of_graph: constant %S uninterpreted"
                 name)
        | Some e ->
            if e < 0 || e >= size then
              invalid_arg
                (Printf.sprintf
                   "Structure.of_graph: constant %S -> %d outside domain" name e);
            SMap.add name e acc)
      SMap.empty (Signature.consts sg)
  in
  create ~signature:sg ~size ~rels ~consts:consts_map

let signature t = t.signature
let size t = t.size
let domain t = List.init t.size Fun.id

let repr t name =
  match SMap.find_opt name t.rels with
  | Some r -> r
  | None -> raise Not_found

let rel t name = set_of_repr (repr t name)

let mem t name tup =
  match repr t name with
  | Rset s -> Tuple.Set.mem tup s
  | Rcsr r -> Array.length tup = 2 && Csr.mem r.csr tup.(0) tup.(1)

let rel_count t name = repr_cardinal (repr t name)

let rel_backend t name =
  match repr t name with Rset _ -> `Set | Rcsr _ -> `Csr

let backend_summary t =
  let saw_set = ref false and saw_csr = ref false in
  SMap.iter
    (fun _ r -> match r with Rset _ -> saw_set := true | Rcsr _ -> saw_csr := true)
    t.rels;
  match (!saw_csr, !saw_set) with
  | true, false -> "csr"
  | true, true -> "mixed"
  | false, _ -> "set"

let csr_of_rel t name =
  match repr t name with Rcsr r -> Some r.csr | Rset _ -> None

let iter_rel t name f = iter_repr f (repr t name)

let iter_rel2 t name f =
  match repr t name with
  | Rcsr r -> Csr.iter_edges r.csr f
  | Rset s ->
      Tuple.Set.iter
        (fun tup ->
          match tup with
          | [| u; v |] -> f u v
          | _ ->
              invalid_arg
                (Printf.sprintf "Structure.iter_rel2: %S is not binary" name))
        s

let index t name =
  match SMap.find_opt name t.indexes with
  | Some idx -> idx
  | None ->
      let idx =
        match repr t name with
        | Rcsr r -> Index.of_csr r.csr
        | Rset s ->
            Index.build ~size:t.size ~arity:(Signature.arity t.signature name) s
      in
      t.indexes <- SMap.add name idx t.indexes;
      idx

let probe t name tup = Index.mem (index t name) tup

let ensure_indexes t =
  List.iter (fun (name, _) -> ignore (index t name)) (Signature.rels t.signature)

(* ---- Gaifman adjacency (shared by Wl and the locality modules) ---- *)

(* Symmetric, self-loop-free co-occurrence rows: u ~ v iff u <> v appear
   together in some tuple of some relation. Built once, cached; like the
   membership indexes, build it before sharing the structure across
   domains. *)
let build_gaifman t =
  let src = Csr.Vec.create ~cap:64 () and dst = Csr.Vec.create ~cap:64 () in
  let edge u v =
    if u <> v then begin
      Csr.Vec.push src u;
      Csr.Vec.push dst v;
      Csr.Vec.push src v;
      Csr.Vec.push dst u
    end
  in
  List.iter
    (fun (name, arity) ->
      if arity = 2 then iter_rel2 t name edge
      else if arity > 2 then
        iter_repr
          (fun tup ->
            let k = Array.length tup in
            for i = 0 to k - 1 do
              for j = i + 1 to k - 1 do
                edge tup.(i) tup.(j)
              done
            done)
          (repr t name))
    (Signature.rels t.signature);
  Csr.of_vecs ~n:t.size src dst

let gaifman_csr t =
  match t.gaifman with
  | Some g -> g
  | None ->
      let g = build_gaifman t in
      t.gaifman <- Some g;
      g

let const t name =
  match SMap.find_opt name t.consts with
  | Some e -> e
  | None -> raise Not_found

let tuple_count t =
  SMap.fold (fun _ r acc -> acc + repr_cardinal r) t.rels 0

let with_rel t name arity tuples =
  Tuple.Set.iter (check_tuple name t.size arity) tuples;
  let signature = Signature.add_rel t.signature (name, arity) in
  create ~signature ~size:t.size
    ~rels:(SMap.add name (repr_of_set ~size:t.size ~arity tuples) t.rels)
    ~consts:t.consts

(* Copy-on-write: the result shares every other relation, and their
   indexes, with [t]. Only the edited relation changes hands — edited in
   place of a rebuild, then re-homed by [with_rel]'s backend rule. *)
let edit t name edits =
  let arity = Signature.arity t.signature name in
  List.iter (fun (tup, _) -> check_tuple name t.size arity tup) edits;
  if edits = [] then t
  else begin
    let repr' =
      match repr t name with
      | Rset s ->
          repr_of_set ~size:t.size ~arity
            (List.fold_left
               (fun s (tup, add) ->
                 if add then Tuple.Set.add tup s else Tuple.Set.remove tup s)
               s edits)
      | Rcsr r ->
          let csr =
            Csr.edit r.csr
              (List.map (fun (tup, add) -> (tup.(0), tup.(1), add)) edits)
          in
          if Csr.edge_count csr >= csr_auto_threshold then
            Rcsr { csr; set_view = None }
          else Rset (set_of_repr (Rcsr { csr; set_view = None }))
    in
    let indexes =
      match repr' with
      | Rcsr r -> SMap.add name (Index.of_csr r.csr) t.indexes
      | Rset _ -> SMap.remove name t.indexes
    in
    { t with rels = SMap.add name repr' t.rels; indexes; gaifman = None }
  end

let expand_consts t bindings =
  List.iter
    (fun (name, e) ->
      if Signature.mem_const t.signature name then
        invalid_arg
          (Printf.sprintf "Structure.expand_consts: %S already bound" name);
      if e < 0 || e >= t.size then
        invalid_arg
          (Printf.sprintf "Structure.expand_consts: %S -> %d outside domain"
             name e))
    bindings;
  create
    ~signature:(Signature.add_consts t.signature (List.map fst bindings))
    ~size:t.size ~rels:t.rels
    ~consts:
      (List.fold_left (fun acc (n, e) -> SMap.add n e acc) t.consts bindings)

(* Force every binary relation into CSR rows (resp. back into sets),
   regardless of size — the differential test suite pins the two
   backends against each other through these. *)
let to_csr t =
  let rels =
    SMap.mapi
      (fun name r ->
        match r with
        | Rcsr _ -> r
        | Rset s ->
            if Signature.arity t.signature name = 2 then
              Rcsr { csr = Csr.of_tuple_set ~n:t.size s; set_view = Some s }
            else r)
      t.rels
  in
  create ~signature:t.signature ~size:t.size ~rels ~consts:t.consts

let to_sets t =
  let rels = SMap.map (fun r -> Rset (set_of_repr r)) t.rels in
  create ~signature:t.signature ~size:t.size ~rels ~consts:t.consts

let induced t elems =
  let elems = List.sort_uniq Int.compare elems in
  List.iter
    (fun e ->
      if e < 0 || e >= t.size then
        invalid_arg "Structure.induced: element outside domain")
    elems;
  let embed = Array.of_list elems in
  let old_to_new = Hashtbl.create (Array.length embed) in
  Array.iteri (fun i e -> Hashtbl.add old_to_new e i) embed;
  let keep tup = Array.for_all (Hashtbl.mem old_to_new) tup in
  let sub_size = Array.length embed in
  let rels =
    SMap.mapi
      (fun name r ->
        let acc = ref Tuple.Set.empty in
        iter_repr
          (fun tup ->
            if keep tup then
              acc := Tuple.Set.add (Array.map (Hashtbl.find old_to_new) tup) !acc)
          r;
        repr_of_set ~size:sub_size
          ~arity:(Signature.arity t.signature name)
          !acc)
      t.rels
  in
  (* Constants pointing outside the induced domain are dropped. *)
  let kept_consts =
    SMap.filter (fun _ e -> Hashtbl.mem old_to_new e) t.consts
  in
  let signature =
    Signature.make
      ~consts:(List.map fst (SMap.bindings kept_consts))
      (Signature.rels t.signature)
  in
  ( create ~signature ~size:sub_size ~rels
      ~consts:(SMap.map (Hashtbl.find old_to_new) kept_consts),
    embed )

let disjoint_union a b =
  if not (Signature.equal a.signature b.signature) then
    invalid_arg "Structure.disjoint_union: signatures differ";
  if Signature.consts a.signature <> [] then
    invalid_arg "Structure.disjoint_union: constants not supported";
  let shift = a.size in
  let rels =
    SMap.mapi
      (fun name ra ->
        match (ra, SMap.find name b.rels) with
        | Rcsr ca, Rcsr cb ->
            Rcsr { csr = Csr.append ca.csr cb.csr; set_view = None }
        | ra, rb ->
            let shifted =
              Tuple.map_set (fun e -> e + shift) (set_of_repr rb)
            in
            repr_of_set ~size:(a.size + b.size)
              ~arity:(Signature.arity a.signature name)
              (Tuple.Set.union (set_of_repr ra) shifted))
      a.rels
  in
  create ~signature:a.signature ~size:(a.size + b.size) ~rels ~consts:a.consts

let relabel t perm =
  if Array.length perm <> t.size then
    invalid_arg "Structure.relabel: permutation length mismatch";
  let seen = Array.make t.size false in
  Array.iter
    (fun e ->
      if e < 0 || e >= t.size || seen.(e) then
        invalid_arg "Structure.relabel: not a permutation";
      seen.(e) <- true)
    perm;
  let rels =
    SMap.map
      (fun r ->
        match r with
        | Rcsr c -> Rcsr { csr = Csr.relabel c.csr perm; set_view = None }
        | Rset s -> Rset (Tuple.map_set (fun e -> perm.(e)) s))
      t.rels
  in
  create ~signature:t.signature ~size:t.size ~rels
    ~consts:(SMap.map (fun e -> perm.(e)) t.consts)

let equal a b =
  Signature.equal a.signature b.signature
  && a.size = b.size
  && SMap.equal
       (fun ra rb ->
         match (ra, rb) with
         | Rcsr ca, Rcsr cb -> Csr.equal ca.csr cb.csr
         | _ -> Tuple.Set.equal (set_of_repr ra) (set_of_repr rb))
       a.rels b.rels
  && SMap.equal Int.equal a.consts b.consts

let pp ppf t =
  Format.fprintf ppf "@[<v>domain: 0..%d@," (t.size - 1);
  SMap.iter
    (fun name r ->
      Format.fprintf ppf "%s = {%a}@," name
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Tuple.pp)
        (Tuple.Set.elements (set_of_repr r)))
    t.rels;
  SMap.iter (fun name e -> Format.fprintf ppf "'%s = %d@," name e) t.consts;
  Format.fprintf ppf "@]"
