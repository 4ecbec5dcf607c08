(* Physical query plans: integer-slot tuples, hash joins, semijoins and
   index access paths. Attribute names are resolved to slots once, at plan
   time (mirroring Fmtk_eval.Compiled); the executor only touches int
   arrays. Every operator loop polls the ambient Budget. *)

module Tuple = Fmtk_structure.Tuple
module Index = Fmtk_structure.Index
module Structure = Fmtk_structure.Structure
module Budget = Fmtk_runtime.Budget

module ArrTbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash = Hashtbl.hash
end)

(* Slot-resolved selection predicate. *)
type spred =
  | SEq of int * int
  | SEqc of int * int
  | SNot of spred
  | SAnd of spred * spred
  | SOr of spred * spred

type pat = PSlot of int | PConst of int

type node =
  | Scan of {
      rel : string;
      eqs : (int * int) list;  (* position = position *)
      consts : (int * int) list;  (* position = value *)
      out : int array;  (* emitted positions *)
    }
  | Table of { rel : Relation.t; out : int array }
  | Filter of spred * t
  | Proj of int array * t  (* slots may repeat: also extends by copy *)
  | HashJoin of {
      l : t;
      r : t;
      lkey : int array;
      rkey : int array;
      rext : int array;  (* right slots appended to the left row *)
    }
  | SemiJoin of { l : t; r : t; lkey : int array; rkey : int array; anti : bool }
  | IdxProbe of { l : t; rel : string; pat : pat array; anti : bool }
  | IdxLoop of { l : t; rel : string; lslot : int }
      (* binary CSR relation: extend each left row by the adjacency row of
         the element in [lslot] *)
  | Union_p of { l : t; r : t; rmap : int array }
  | Diff_p of { l : t; r : t; rmap : int array }
  | Cached of { id : int; p : t }  (* DAG sharing point *)

and t = { node : node; schema : string array; est : float }

let rec eval_spred p (row : int array) =
  match p with
  | SEq (i, j) -> row.(i) = row.(j)
  | SEqc (i, v) -> row.(i) = v
  | SNot q -> not (eval_spred q row)
  | SAnd (q, r) -> eval_spred q row && eval_spred r row
  | SOr (q, r) -> eval_spred q row || eval_spred r row

(* ---- execution ---- *)

exception Run_error of string

type table = { tschema : string array; rows : Tuple.Set.t }

let relation_of_table t = Relation.of_set (Array.to_list t.tschema) t.rows

let run ?budget db plan =
  let tick =
    match budget with
    | None -> fun () -> ()
    | Some b ->
        let p = Budget.poller b in
        fun () -> Budget.check p
  in
  let memo : (int, table) Hashtbl.t = Hashtbl.create 8 in
  (* Per-run membership indexes for IdxProbe over relations the source
     structure does not index (derived instances, [Algebra.adom], "@c"). *)
  let adhoc : (string, Index.t) Hashtbl.t = Hashtbl.create 4 in
  let base name =
    match Algebra.Database.find db name with
    | Ok r -> r
    | Error m -> raise (Run_error m)
  in
  let source_index name =
    match Algebra.Database.source db with
    | Some s
      when List.mem_assoc name
             (Fmtk_logic.Signature.rels (Structure.signature s)) ->
        Structure.index s name
    | _ -> (
        match Hashtbl.find_opt adhoc name with
        | Some ix -> ix
        | None ->
            let r = base name in
            let ix = Index.of_tuples ~arity:(Relation.arity r) (Relation.tuples r) in
            Hashtbl.add adhoc name ix;
            ix)
  in
  let rec go p : table =
    match p.node with
    | Cached { id; p = inner } -> (
        (* schema comes from this reference (a Rename above a shared node
           relabels without recomputation); rows from the shared memo *)
        match Hashtbl.find_opt memo id with
        | Some t -> { tschema = p.schema; rows = t.rows }
        | None ->
            let t = go inner in
            Hashtbl.add memo id t;
            { tschema = p.schema; rows = t.rows })
    | Scan { rel; eqs; consts; out } ->
        let r = base rel in
        let rows =
          Tuple.Set.fold
            (fun tup acc ->
              tick ();
              if
                List.for_all (fun (i, j) -> tup.(i) = tup.(j)) eqs
                && List.for_all (fun (i, v) -> tup.(i) = v) consts
              then Tuple.Set.add (Array.map (fun i -> tup.(i)) out) acc
              else acc)
            (Relation.tuples r) Tuple.Set.empty
        in
        { tschema = p.schema; rows }
    | Table { rel; out } ->
        let rows =
          Tuple.Set.fold
            (fun tup acc ->
              tick ();
              Tuple.Set.add (Array.map (fun i -> tup.(i)) out) acc)
            (Relation.tuples rel) Tuple.Set.empty
        in
        { tschema = p.schema; rows }
    | Filter (pred, c) ->
        let t = go c in
        let rows =
          Tuple.Set.filter
            (fun row ->
              tick ();
              eval_spred pred row)
            t.rows
        in
        { tschema = p.schema; rows }
    | Proj (out, c) ->
        let t = go c in
        let rows =
          Tuple.Set.fold
            (fun row acc ->
              tick ();
              Tuple.Set.add (Array.map (fun i -> row.(i)) out) acc)
            t.rows Tuple.Set.empty
        in
        { tschema = p.schema; rows }
    | HashJoin { l; r; lkey; rkey; rext } ->
        let lt = go l and rt = go r in
        let h : int array list ArrTbl.t =
          ArrTbl.create (max 16 (Tuple.Set.cardinal rt.rows))
        in
        Tuple.Set.iter
          (fun row ->
            tick ();
            let k = Array.map (fun i -> row.(i)) rkey in
            let prev = try ArrTbl.find h k with Not_found -> [] in
            ArrTbl.replace h k (row :: prev))
          rt.rows;
        let nl = Array.length l.schema and ne = Array.length rext in
        let rows =
          Tuple.Set.fold
            (fun lrow acc ->
              tick ();
              let k = Array.map (fun i -> lrow.(i)) lkey in
              match ArrTbl.find_opt h k with
              | None -> acc
              | Some matches ->
                  List.fold_left
                    (fun acc rrow ->
                      tick ();
                      let out = Array.make (nl + ne) 0 in
                      Array.blit lrow 0 out 0 nl;
                      for i = 0 to ne - 1 do
                        out.(nl + i) <- rrow.(rext.(i))
                      done;
                      Tuple.Set.add out acc)
                    acc matches)
            lt.rows Tuple.Set.empty
        in
        { tschema = p.schema; rows }
    | SemiJoin { l; r; lkey; rkey; anti } ->
        let lt = go l and rt = go r in
        let h : unit ArrTbl.t = ArrTbl.create (max 16 (Tuple.Set.cardinal rt.rows)) in
        Tuple.Set.iter
          (fun row ->
            tick ();
            ArrTbl.replace h (Array.map (fun i -> row.(i)) rkey) ())
          rt.rows;
        let rows =
          Tuple.Set.filter
            (fun lrow ->
              tick ();
              ArrTbl.mem h (Array.map (fun i -> lrow.(i)) lkey) <> anti)
            lt.rows
        in
        { tschema = p.schema; rows }
    | IdxProbe { l; rel; pat; anti } ->
        let lt = go l in
        let ix = source_index rel in
        let key = Array.make (Array.length pat) 0 in
        let rows =
          Tuple.Set.filter
            (fun lrow ->
              tick ();
              Array.iteri
                (fun i p ->
                  key.(i) <-
                    (match p with PSlot s -> lrow.(s) | PConst v -> v))
                pat;
              Index.mem ix key <> anti)
            lt.rows
        in
        { tschema = p.schema; rows }
    | IdxLoop { l; rel; lslot } ->
        let lt = go l in
        let ix = source_index rel in
        (match Index.rows ix with
        | None ->
            raise (Run_error (Printf.sprintf "IdxLoop: %S has no CSR rows" rel))
        | Some _ -> ());
        let nl = Array.length l.schema in
        let rows = ref Tuple.Set.empty in
        Tuple.Set.iter
          (fun lrow ->
            tick ();
            Index.iter_row1 ix lrow.(lslot) (fun y ->
                tick ();
                let out = Array.make (nl + 1) 0 in
                Array.blit lrow 0 out 0 nl;
                out.(nl) <- y;
                rows := Tuple.Set.add out !rows))
          lt.rows;
        { tschema = p.schema; rows = !rows }
    | Union_p { l; r; rmap } ->
        let lt = go l and rt = go r in
        let rows =
          Tuple.Set.fold
            (fun rrow acc ->
              tick ();
              Tuple.Set.add (Array.map (fun i -> rrow.(i)) rmap) acc)
            rt.rows lt.rows
        in
        { tschema = p.schema; rows }
    | Diff_p { l; r; rmap } ->
        let lt = go l and rt = go r in
        let rrows =
          Tuple.Set.fold
            (fun rrow acc ->
              tick ();
              Tuple.Set.add (Array.map (fun i -> rrow.(i)) rmap) acc)
            rt.rows Tuple.Set.empty
        in
        { tschema = p.schema; rows = Tuple.Set.diff lt.rows rrows }
  in
  match go plan with
  | t -> Ok (relation_of_table t)
  | exception Run_error m -> Error m

(* ---- pretty-printing (for fmtk eval --explain) ---- *)

let pp_slots ppf a =
  Format.fprintf ppf "[%s]"
    (String.concat "," (Array.to_list (Array.map string_of_int a)))

let rec pp_spred ppf = function
  | SEq (i, j) -> Format.fprintf ppf "$%d=$%d" i j
  | SEqc (i, v) -> Format.fprintf ppf "$%d=%d" i v
  | SNot p -> Format.fprintf ppf "!(%a)" pp_spred p
  | SAnd (p, q) -> Format.fprintf ppf "(%a & %a)" pp_spred p pp_spred q
  | SOr (p, q) -> Format.fprintf ppf "(%a | %a)" pp_spred p pp_spred q

let pp_pat ppf = function
  | PSlot s -> Format.fprintf ppf "$%d" s
  | PConst v -> Format.pp_print_int ppf v

let pp ppf plan =
  let rec go indent p =
    let pad = String.make indent ' ' in
    let hdr name detail =
      Format.fprintf ppf "%s%s%s  {%s} est=%.0f@," pad name detail
        (String.concat "," (Array.to_list p.schema))
        p.est
    in
    match p.node with
    | Scan { rel; eqs; consts; out } ->
        let detail =
          Printf.sprintf " %s%s%s out=%s" rel
            (String.concat ""
               (List.map (fun (i, j) -> Printf.sprintf " $%d=$%d" i j) eqs))
            (String.concat ""
               (List.map (fun (i, v) -> Printf.sprintf " $%d=%d" i v) consts))
            (Format.asprintf "%a" pp_slots out)
        in
        hdr "scan" detail
    | Table { rel; out } ->
        hdr "table"
          (Printf.sprintf " <%d rows> out=%s" (Relation.cardinality rel)
             (Format.asprintf "%a" pp_slots out))
    | Filter (sp, c) ->
        hdr "filter" (Format.asprintf " %a" pp_spred sp);
        go (indent + 2) c
    | Proj (out, c) ->
        hdr "proj" (Format.asprintf " %a" pp_slots out);
        go (indent + 2) c
    | HashJoin { l; r; lkey; rkey; rext } ->
        hdr "hash-join"
          (Format.asprintf " lkey=%a rkey=%a rext=%a" pp_slots lkey pp_slots
             rkey pp_slots rext);
        go (indent + 2) l;
        go (indent + 2) r
    | SemiJoin { l; r; lkey; rkey; anti } ->
        hdr (if anti then "anti-semijoin" else "semijoin")
          (Format.asprintf " lkey=%a rkey=%a" pp_slots lkey pp_slots rkey);
        go (indent + 2) l;
        go (indent + 2) r
    | IdxProbe { l; rel; pat; anti } ->
        hdr (if anti then "idx-antiprobe" else "idx-probe")
          (Format.asprintf " %s(%s)" rel
             (String.concat ","
                (Array.to_list
                   (Array.map (Format.asprintf "%a" pp_pat) pat))));
        go (indent + 2) l
    | IdxLoop { l; rel; lslot } ->
        hdr "idx-loop" (Printf.sprintf " %s($%d,*)" rel lslot);
        go (indent + 2) l
    | Union_p { l; r; _ } ->
        hdr "union" "";
        go (indent + 2) l;
        go (indent + 2) r
    | Diff_p { l; r; _ } ->
        hdr "diff" "";
        go (indent + 2) l;
        go (indent + 2) r
    | Cached { id; p = inner } ->
        hdr "cache" (Printf.sprintf " #%d" id);
        go (indent + 2) inner
  in
  Format.fprintf ppf "@[<v>";
  go 0 plan;
  Format.fprintf ppf "@]"
