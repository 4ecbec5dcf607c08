(* Incremental maintenance of materialized algebra expressions under
   single-tuple insert/delete (counting-based IVM).

   Every node of the (rewritten) expression keeps the multiset of its
   output tuples with derivation counts: Select filters counts, Project
   sums them, Join multiplies (with key-indexed sidecars for delta
   probing), Union adds, and Diff emits support-flip deltas
   (count(t) = countL(t) iff countR(t) = 0). A single-tuple base update
   produces deltas only along the paths that mention the touched relation;
   everything else is untouched. The root keeps its multiset as the
   answer itself, an ordered relation, plus the counts above 1, so a read
   of the answer copies nothing. The active domain is treated as fixed:
   updates must stay within the existing domain (checked by callers that
   mutate structures — see Store.update). *)

module Tuple = Fmtk_structure.Tuple
module Budget = Fmtk_runtime.Budget
open Algebra

module ArrTbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : int array) b =
    Array.length a = Array.length b
    &&
    let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
    go (Array.length a - 1)

  let hash = Hashtbl.hash
end)

exception Build_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Build_error m)) fmt

(* The root's output multiset: its support as an ordered relation (what
   [result] hands out) and, beside it, only the counts above 1 — for a
   full conjunctive query every answer has one derivation and [multi]
   stays empty. *)
type answer = { mutable rel : Relation.t; multi : int ArrTbl.t }

type node = { op : op; schema : string array; out : out }

(* Every node but the root counts its output tuples in a hash table. *)
and out = Counts of int ArrTbl.t | Answer of answer

and op =
  | NBase of string
  | NTable  (* literal: constant, never receives deltas *)
  | NSelect of node * Physical.spred
  | NProj of node * int array
  | NJoin of {
      l : node;
      r : node;
      lkey : int array;
      rkey : int array;
      rext : int array;
      lidx : int ArrTbl.t ArrTbl.t;  (* key -> (row -> count) *)
      ridx : int ArrTbl.t ArrTbl.t;
    }
  | NUnion of { l : node; r : node; rmap : int array }
  | NDiff of { l : node; r : node; rmap : int array; rcnt : int ArrTbl.t }

(* [arities] holds every relation's arity, to check updates with: the
   plan keeps no reference to the database it was built from. *)
type t = { root : node; answer : answer; arities : (string * int) list }

(* ---- multiset helpers ---- *)

let cnt tbl t = match ArrTbl.find_opt tbl t with Some c -> c | None -> 0

let count out t =
  match out with
  | Counts tbl -> cnt tbl t
  | Answer a ->
      if Tuple.Set.mem t (Relation.tuples a.rel) then
        Option.value (ArrTbl.find_opt a.multi t) ~default:1
      else 0

(* Only the root answers in a relation, and [build] converts it last, so
   every node [build] reads from still counts in a table. *)
let table node =
  match node.out with
  | Counts tbl -> tbl
  | Answer _ -> invalid_arg "Delta: the root has no count table"

(* Move [t]'s count from [old] to [c]. At the root, a tuple entering or
   leaving the support is one ordered-set insert or removal. *)
let set_count out t ~old c =
  match out with
  | Counts tbl -> if c = 0 then ArrTbl.remove tbl t else ArrTbl.replace tbl t c
  | Answer a ->
      if old = 0 then a.rel <- Relation.add t a.rel
      else if c = 0 then a.rel <- Relation.remove t a.rel;
      if c > 1 then ArrTbl.replace a.multi t c
      else if old > 1 then ArrTbl.remove a.multi t

(* Apply a (possibly repetitive) delta list to a multiset; returns the net
   per-tuple delta actually applied (zero-net entries dropped). *)
let apply tick out deltas =
  let merged = ArrTbl.create (max 4 (List.length deltas)) in
  List.iter
    (fun (t, d) ->
      tick ();
      ArrTbl.replace merged t (cnt merged t + d))
    deltas;
  ArrTbl.fold
    (fun t d acc ->
      if d = 0 then acc
      else begin
        let old = count out t in
        let c = old + d in
        if c < 0 then err "delta: negative multiplicity";
        set_count out t ~old c;
        (t, d) :: acc
      end)
    merged []

let idx_key key row = Array.map (fun i -> row.(i)) key

let idx_add tick idx key deltas =
  List.iter
    (fun (t, d) ->
      tick ();
      let k = idx_key key t in
      let sub =
        match ArrTbl.find_opt idx k with
        | Some s -> s
        | None ->
            let s = ArrTbl.create 4 in
            ArrTbl.add idx k s;
            s
      in
      let c = cnt sub t + d in
      if c = 0 then begin
        ArrTbl.remove sub t;
        if ArrTbl.length sub = 0 then ArrTbl.remove idx k
      end
      else ArrTbl.replace sub t c)
    deltas

let combine l rext rrow =
  let nl = Array.length l and ne = Array.length rext in
  let out = Array.make (nl + ne) 0 in
  Array.blit l 0 out 0 nl;
  for i = 0 to ne - 1 do
    out.(nl + i) <- rrow.(rext.(i))
  done;
  out

let align rmap row = Array.map (fun i -> row.(i)) rmap

(* ---- construction ---- *)

let slot_of schema a =
  let n = Array.length schema in
  let rec go i =
    if i >= n then err "delta: unknown attribute %s" a
    else if schema.(i) = a then i
    else go (i + 1)
  in
  go 0

let rec resolve_spred schema = function
  | Eq_attr (a, b) -> Physical.SEq (slot_of schema a, slot_of schema b)
  | Eq_const (a, v) -> Physical.SEqc (slot_of schema a, v)
  | Not_p p -> Physical.SNot (resolve_spred schema p)
  | And_p (p, q) ->
      Physical.SAnd (resolve_spred schema p, resolve_spred schema q)
  | Or_p (p, q) -> Physical.SOr (resolve_spred schema p, resolve_spred schema q)

let seed_from_relation tick counts r =
  Tuple.Set.iter
    (fun t ->
      tick ();
      ArrTbl.replace counts t 1)
    (Relation.tuples r)

let build tick db e =
  let rec go e : node =
    match e with
    | Base n ->
        let r = Database.find_exn db n in
        let counts = ArrTbl.create (max 16 (2 * Relation.cardinality r)) in
        seed_from_relation tick counts r;
        {
          op = NBase n;
          schema = Array.of_list (Relation.attrs r);
          out = Counts counts;
        }
    | Lit r ->
        let counts = ArrTbl.create 4 in
        seed_from_relation tick counts r;
        {
          op = NTable;
          schema = Array.of_list (Relation.attrs r);
          out = Counts counts;
        }
    | Rename (m, e0) ->
        let c = go e0 in
        let f a = match List.assoc_opt a m with Some b -> b | None -> a in
        { c with schema = Array.map f c.schema }
    | Select (p, e0) ->
        let c = go e0 in
        let sp = resolve_spred c.schema p in
        let counts = ArrTbl.create 16 in
        ArrTbl.iter
          (fun t d ->
            tick ();
            if Physical.eval_spred sp t then ArrTbl.replace counts t d)
          (table c);
        { op = NSelect (c, sp); schema = c.schema; out = Counts counts }
    | Project (ns, e0) ->
        let c = go e0 in
        let out = Array.of_list (List.map (slot_of c.schema) ns) in
        let counts = ArrTbl.create 16 in
        ArrTbl.iter
          (fun t d ->
            tick ();
            let t' = Array.map (fun i -> t.(i)) out in
            ArrTbl.replace counts t' (cnt counts t' + d))
          (table c);
        { op = NProj (c, out); schema = Array.of_list ns; out = Counts counts }
    | Join (a, b) ->
        let l = go a and r = go b in
        let ls = Array.to_list l.schema and rs = Array.to_list r.schema in
        let shared = List.filter (fun x -> List.mem x ls) rs in
        let new_attrs = List.filter (fun x -> not (List.mem x ls)) rs in
        let lkey = Array.of_list (List.map (slot_of l.schema) shared) in
        let rkey = Array.of_list (List.map (slot_of r.schema) shared) in
        let rext = Array.of_list (List.map (slot_of r.schema) new_attrs) in
        let lidx = ArrTbl.create 16 and ridx = ArrTbl.create 16 in
        ArrTbl.iter
          (fun t d -> idx_add tick lidx lkey [ (t, d) ])
          (table l);
        ArrTbl.iter
          (fun t d -> idx_add tick ridx rkey [ (t, d) ])
          (table r);
        let counts = ArrTbl.create 16 in
        ArrTbl.iter
          (fun lt ld ->
            let k = idx_key lkey lt in
            match ArrTbl.find_opt ridx k with
            | None -> ()
            | Some sub ->
                ArrTbl.iter
                  (fun rt rd ->
                    tick ();
                    let t = combine lt rext rt in
                    ArrTbl.replace counts t (cnt counts t + (ld * rd)))
                  sub)
          (table l);
        {
          op = NJoin { l; r; lkey; rkey; rext; lidx; ridx };
          schema = Array.append l.schema (Array.of_list new_attrs);
          out = Counts counts;
        }
    | Union (a, b) ->
        let l = go a and r = go b in
        let rmap = Array.map (fun x -> slot_of r.schema x) l.schema in
        let counts = ArrTbl.create 16 in
        ArrTbl.iter (fun t d -> ArrTbl.replace counts t d) (table l);
        ArrTbl.iter
          (fun t d ->
            tick ();
            let t' = align rmap t in
            ArrTbl.replace counts t' (cnt counts t' + d))
          (table r);
        { op = NUnion { l; r; rmap }; schema = l.schema; out = Counts counts }
    | Diff (a, b) ->
        let l = go a and r = go b in
        let rmap = Array.map (fun x -> slot_of r.schema x) l.schema in
        let rcnt = ArrTbl.create 16 in
        ArrTbl.iter
          (fun t d ->
            tick ();
            let t' = align rmap t in
            ArrTbl.replace rcnt t' (cnt rcnt t' + d))
          (table r);
        let counts = ArrTbl.create 16 in
        ArrTbl.iter
          (fun t d -> if cnt rcnt t = 0 then ArrTbl.replace counts t d)
          (table l);
        {
          op = NDiff { l; r; rmap; rcnt };
          schema = l.schema;
          out = Counts counts;
        }
  in
  go e

(* Give the root its ordered answer in place of its count table, which
   nothing else refers to and is dropped. *)
let answer_root root =
  let multi = ArrTbl.create 16 in
  let support =
    ArrTbl.fold
      (fun t c acc ->
        if c > 1 then ArrTbl.replace multi t c;
        t :: acc)
      (table root) []
  in
  let a =
    {
      rel =
        Relation.of_set (Array.to_list root.schema) (Tuple.Set.of_list support);
      multi;
    }
  in
  ({ root with out = Answer a }, a)

(* ---- propagation ---- *)

(* Push a single-tuple base update through the tree; returns this node's
   net output delta (already applied to its counts). *)
let rec step tick node ~rel ~tup ~d : (int array * int) list =
  match node.op with
  | NTable -> []
  | NBase r ->
      if r <> rel then []
      else
        let present = count node.out tup > 0 in
        if (d > 0 && present) || (d < 0 && not present) then []
        else apply tick node.out [ (tup, d) ]
  | NSelect (c, sp) ->
      let dc = step tick c ~rel ~tup ~d in
      apply tick node.out (List.filter (fun (t, _) -> Physical.eval_spred sp t) dc)
  | NProj (c, out) ->
      let dc = step tick c ~rel ~tup ~d in
      apply tick node.out
        (List.map (fun (t, dd) -> (Array.map (fun i -> t.(i)) out, dd)) dc)
  | NJoin { l; r; lkey; rkey; rext; lidx; ridx } ->
      let dl = step tick l ~rel ~tup ~d in
      let dr = step tick r ~rel ~tup ~d in
      if dl = [] && dr = [] then []
      else begin
        (* bring the key indexes to the post-update state first *)
        idx_add tick lidx lkey dl;
        idx_add tick ridx rkey dr;
        let out = ref [] in
        (* delta_L join R_new *)
        List.iter
          (fun (lt, ld) ->
            match ArrTbl.find_opt ridx (idx_key lkey lt) with
            | None -> ()
            | Some sub ->
                ArrTbl.iter
                  (fun rt rd ->
                    tick ();
                    out := (combine lt rext rt, ld * rd) :: !out)
                  sub)
          dl;
        (* L_new join delta_R *)
        List.iter
          (fun (rt, rd) ->
            match ArrTbl.find_opt lidx (idx_key rkey rt) with
            | None -> ()
            | Some sub ->
                ArrTbl.iter
                  (fun lt ld ->
                    tick ();
                    out := (combine lt rext rt, ld * rd) :: !out)
                  sub)
          dr;
        (* minus delta_L join delta_R (double-counted above) *)
        List.iter
          (fun (lt, ld) ->
            let k = idx_key lkey lt in
            List.iter
              (fun (rt, rd) ->
                tick ();
                if idx_key rkey rt = k then
                  out := (combine lt rext rt, -(ld * rd)) :: !out)
              dr)
          dl;
        apply tick node.out !out
      end
  | NUnion { l; r; rmap } ->
      let dl = step tick l ~rel ~tup ~d in
      let dr = step tick r ~rel ~tup ~d in
      apply tick node.out (dl @ List.map (fun (t, dd) -> (align rmap t, dd)) dr)
  | NDiff { l; r; rmap; rcnt } ->
      let dl = step tick l ~rel ~tup ~d in
      let dr = step tick r ~rel ~tup ~d in
      if dl = [] && dr = [] then []
      else begin
        let dr = List.map (fun (t, dd) -> (align rmap t, dd)) dr in
        (* net right-side delta per tuple, applied to the aligned mirror *)
        let drn = apply tick (Counts rcnt) dr in
        (* per affected tuple: value = countL(t) * [countR(t) = 0] *)
        let affected = ArrTbl.create 8 in
        List.iter (fun (t, dd) -> ArrTbl.replace affected t (cnt affected t + dd)) dl;
        List.iter
          (fun (t, _) ->
            if not (ArrTbl.mem affected t) then ArrTbl.replace affected t 0)
          drn;
        let dr_tbl = ArrTbl.create 8 in
        List.iter
          (fun (t, dd) -> ArrTbl.replace dr_tbl t (cnt dr_tbl t + dd))
          drn;
        let out = ref [] in
        ArrTbl.iter
          (fun t dl_t ->
            tick ();
            let new_l = count l.out t in
            let old_l = new_l - dl_t in
            let new_r = cnt rcnt t in
            let old_r = new_r - cnt dr_tbl t in
            let old_v = if old_r = 0 then old_l else 0 in
            let new_v = if new_r = 0 then new_l else 0 in
            if new_v <> old_v then out := (t, new_v - old_v) :: !out)
          affected;
        apply tick node.out !out
      end

(* ---- public API ---- *)

let tick_of budget =
  match budget with
  | None -> fun () -> ()
  | Some b ->
      let p = Budget.poller b in
      fun () -> Budget.check p

let materialize ?budget db e =
  let tick = tick_of budget in
  match answer_root (build tick db (Planner.rewrite db e)) with
  | root, answer -> Ok { root; answer; arities = Database.arities db }
  | exception Build_error m -> Error m
  | exception Schema_error m -> Error m

let result t = t.answer.rel

let update ?budget t ~rel tup ~add =
  let tick = tick_of budget in
  match List.assoc_opt rel t.arities with
  | None -> Error (Printf.sprintf "no relation %S" rel)
  | Some k when k <> Array.length tup ->
      Error
        (Printf.sprintf "delta: arity mismatch for %S (expected %d, got %d)"
           rel k (Array.length tup))
  | Some _ -> (
      match step tick t.root ~rel ~tup ~d:(if add then 1 else -1) with
      | _ -> Ok ()
      | exception Build_error m -> Error m)
