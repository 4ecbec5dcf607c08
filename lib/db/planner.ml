(* Logical rewriter + cost-based planner: Algebra.expr -> Physical.t.

   Stage 1 (rewrite): selection pushdown, rename fusion, projection
   collapsing, removal of the adom-padding joins Compile emits.
   Stage 2 (plan): join-tree flattening, cardinality estimation from
   relation sizes + per-column distinct counts, greedy join ordering, GYO
   ear reduction to detect acyclic join trees and emit semijoin
   (Yannakakis-style) programs, anti-joins for compiled negation and for
   a - (a ⋈ g), and access-path selection (index probe /
   index-nested-loop) against the source structure's indexes. *)

open Algebra
module SSet = Set.Make (String)
module Structure = Fmtk_structure.Structure
module Index = Fmtk_structure.Index
module Tuple = Fmtk_structure.Tuple

exception Plan_error of string

let err fmt = Printf.ksprintf (fun m -> raise (Plan_error m)) fmt

(* ---------- schemas ---------- *)

let rec attrs_of db e =
  match e with
  | Base n -> Relation.attrs (Database.find_exn db n)
  | Lit r -> Relation.attrs r
  | Select (_, e) -> attrs_of db e
  | Project (ns, _) -> ns
  | Rename (m, e) ->
      List.map
        (fun a -> match List.assoc_opt a m with Some b -> b | None -> a)
        (attrs_of db e)
  | Join (a, b) ->
      let aa = attrs_of db a in
      let s = SSet.of_list aa in
      aa @ List.filter (fun x -> not (SSet.mem x s)) (attrs_of db b)
  | Union (a, _) | Diff (a, _) -> attrs_of db a

(* ---------- logical rewriter ---------- *)

let rec conjuncts = function
  | And_p (p, q) -> conjuncts p @ conjuncts q
  | p -> [ p ]

let conj = function
  | [] -> None
  | p :: ps -> Some (List.fold_left (fun acc q -> And_p (acc, q)) p ps)

let rec pred_attrs = function
  | Eq_attr (a, b) -> SSet.add a (SSet.singleton b)
  | Eq_const (a, _) -> SSet.singleton a
  | Not_p p -> pred_attrs p
  | And_p (p, q) | Or_p (p, q) -> SSet.union (pred_attrs p) (pred_attrs q)

(* Substitute attribute names in a predicate. *)
let rec map_pred f = function
  | Eq_attr (a, b) -> Eq_attr (f a, f b)
  | Eq_const (a, v) -> Eq_const (f a, v)
  | Not_p p -> Not_p (map_pred f p)
  | And_p (p, q) -> And_p (map_pred f p, map_pred f q)
  | Or_p (p, q) -> Or_p (map_pred f p, map_pred f q)

let is_nullary_true = function
  | Lit r -> Relation.arity r = 0 && Relation.cardinality r = 1
  | _ -> false

(* The shape Compile.adom_as emits for padding joins. *)
let adom_attr = function
  | Rename ([ ("#1", x) ], Base n) when n = adom -> Some x
  | _ -> None

let rec rw db e =
  match e with
  | Base _ | Lit _ -> e
  | Rename (m, e0) -> (
      let e0 = rw db e0 in
      let m = List.filter (fun (a, b) -> a <> b) m in
      match e0 with
      | Rename (m2, e1) ->
          (* fuse: first m2, then m *)
          let fused =
            List.map
              (fun (a, b) ->
                (a, match List.assoc_opt b m with Some c -> c | None -> b))
              m2
            @ List.filter (fun (a, _) -> not (List.mem_assoc a (List.map (fun (x, y) -> (y, x)) m2))) m
          in
          let fused = List.filter (fun (a, b) -> a <> b) fused in
          if fused = [] then e1 else Rename (fused, e1)
      | _ -> if m = [] then e0 else Rename (m, e0))
  | Project (ns, e0) -> (
      let e0 = rw db e0 in
      match e0 with
      | Project (_, e1) -> if attrs_of db e1 = ns then e1 else Project (ns, e1)
      | _ -> if attrs_of db e0 = ns then e0 else Project (ns, e0))
  | Select (p, e0) -> push_select db p (rw db e0)
  | Join (a, b) -> (
      let a = rw db a and b = rw db b in
      if is_nullary_true a then b
      else if is_nullary_true b then a
      else
        match adom_attr b with
        | Some x when List.mem x (attrs_of db a) -> a
        | _ -> (
            match adom_attr a with
            | Some x when List.mem x (attrs_of db b) -> b
            | _ -> Join (a, b)))
  | Union (a, b) -> Union (rw db a, rw db b)
  | Diff (a, b) -> Diff (rw db a, rw db b)

and push_select db p e0 =
  match e0 with
  | Select (q, e1) -> push_select db (And_p (p, q)) e1
  | Project (ns, e1) ->
      (* p only mentions attributes of ns, all present below *)
      rw db (Project (ns, push_select db p e1))
  | Rename (m, e1) ->
      let inv = List.map (fun (o, n) -> (n, o)) m in
      let f a = match List.assoc_opt a inv with Some o -> o | None -> a in
      Rename (m, push_select db (map_pred f p) e1)
  | Join (a, b) ->
      let aa = SSet.of_list (attrs_of db a)
      and ba = SSet.of_list (attrs_of db b) in
      let ca, cb, rest =
        List.fold_left
          (fun (ca, cb, rest) c ->
            let pa = pred_attrs c in
            if SSet.subset pa aa then (c :: ca, cb, rest)
            else if SSet.subset pa ba then (ca, c :: cb, rest)
            else (ca, cb, c :: rest))
          ([], [], []) (conjuncts p)
      in
      let a = match conj ca with None -> a | Some q -> push_select db q a in
      let b = match conj cb with None -> b | Some q -> push_select db q b in
      let j = rw db (Join (a, b)) in
      (match conj rest with None -> j | Some q -> Select (q, j))
  | Union (a, b) -> Union (push_select db p a, push_select db p b)
  | Diff (a, b) -> Diff (push_select db p a, push_select db p b)
  | Base _ | Lit _ -> Select (p, e0)

let rewrite db e = rw db e

(* ---------- statistics ---------- *)

type rstat = { rows : int; distinct : int array }

type stats = { stbl : (string, rstat) Hashtbl.t; sdb : Database.t }

let stats_of_database db = { stbl = Hashtbl.create 8; sdb = db }

let rstat st name =
  match Hashtbl.find_opt st.stbl name with
  | Some s -> s
  | None ->
      let s =
        match Database.find st.sdb name with
        | Error _ -> { rows = 0; distinct = [||] }
        | Ok r ->
            let k = Relation.arity r in
            let cols = Array.init k (fun _ -> Hashtbl.create 64) in
            Tuple.Set.iter
              (fun tup ->
                Array.iteri (fun i v -> Hashtbl.replace cols.(i) v ()) tup)
              (Relation.tuples r);
            {
              rows = Relation.cardinality r;
              distinct = Array.map Hashtbl.length cols;
            }
      in
      Hashtbl.add st.stbl name s;
      s

(* ---------- physical translation ---------- *)

module P = Physical

(* A candidate plan together with per-attribute distinct estimates. *)
type cand = { p : P.t; dmap : (string * float) list }

let slot_of schema a =
  let n = Array.length schema in
  let rec go i =
    if i >= n then err "planner: unknown attribute %s" a
    else if schema.(i) = a then i
    else go (i + 1)
  in
  go 0

let d_of cand a =
  match List.assoc_opt a cand.dmap with
  | Some d -> Float.min d cand.p.P.est
  | None -> cand.p.P.est

let est_join l r keys =
  let denom =
    List.fold_left (fun acc a -> acc *. Float.max 1. (Float.max (d_of l a) (d_of r a))) 1. keys
  in
  Float.max 1. (l.p.P.est *. r.p.P.est /. denom)

let join_dmap l r keys est =
  let keyset = SSet.of_list keys in
  let merged =
    List.map
      (fun (a, d) ->
        if SSet.mem a keyset then (a, Float.min d (d_of r a)) else (a, d))
      l.dmap
    @ List.filter (fun (a, _) -> not (List.mem_assoc a l.dmap)) r.dmap
  in
  List.map (fun (a, d) -> (a, Float.min d est)) merged

(* GYO ear reduction over hyperedges (attr sets). Returns the elimination
   order as (ear index, witness index) pairs if the hypergraph is
   acyclic. *)
let gyo (edges : SSet.t array) =
  let n = Array.length edges in
  let alive = Array.make n true in
  let order = ref [] in
  let removed = ref 0 in
  let progress = ref true in
  while !progress && !removed < n - 1 do
    progress := false;
    (try
       for i = 0 to n - 1 do
         if alive.(i) then begin
           (* attrs of i shared with any other live edge *)
           let shared =
             SSet.filter
               (fun a ->
                 let ext = ref false in
                 for k = 0 to n - 1 do
                   if k <> i && alive.(k) && SSet.mem a edges.(k) then
                     ext := true
                 done;
                 !ext)
               edges.(i)
           in
           for j = 0 to n - 1 do
             if j <> i && alive.(j) && SSet.subset shared edges.(j) then begin
               alive.(i) <- false;
               order := (i, j) :: !order;
               incr removed;
               progress := true;
               raise Exit
             end
           done
         end
       done
     with Exit -> ())
  done;
  if !removed = n - 1 then Some (List.rev !order) else None

let plan ?stats db e =
  let st = match stats with Some s -> s | None -> stats_of_database db in
  let next_id = ref 0 in
  let cached p =
    let id = !next_id in
    incr next_id;
    { P.node = P.Cached { id; p }; schema = p.P.schema; est = p.P.est }
  in
  (* Translate a rewritten expression. *)
  let rec tr e : cand =
    match e with
    | Base n ->
        let r = Database.find_exn db n in
        let k = Relation.arity r in
        let schema = Array.of_list (Relation.attrs r) in
        let s = rstat st n in
        let dmap =
          List.mapi (fun i a -> (a, float_of_int s.distinct.(i))) (Relation.attrs r)
        in
        ignore k;
        {
          p =
            {
              P.node =
                P.Scan { rel = n; eqs = []; consts = []; out = Array.init k (fun i -> i) };
              schema;
              est = float_of_int s.rows;
            };
          dmap;
        }
    | Lit r ->
        let schema = Array.of_list (Relation.attrs r) in
        {
          p =
            {
              P.node =
                P.Table
                  { rel = r; out = Array.init (Relation.arity r) (fun i -> i) };
              schema;
              est = float_of_int (Relation.cardinality r);
            };
          dmap = [];
        }
    | Rename (m, e0) ->
        let c = tr e0 in
        let f a = match List.assoc_opt a m with Some b -> b | None -> a in
        {
          p = { c.p with P.schema = Array.map f c.p.P.schema };
          dmap = List.map (fun (a, d) -> (f a, d)) c.dmap;
        }
    | Project (ns, e0) ->
        let c = tr e0 in
        project_to ns c
    | Select (p0, e0) -> (
        match strip_joins e0 with
        | Some leaves -> plan_join (conjuncts p0) leaves
        | None ->
            let c = tr e0 in
            filter_cand p0 c)
    | Join _ -> plan_join [] (flatten e [])
    | Union (a, b) ->
        let l = tr a and r = tr b in
        let rmap = align l.p.P.schema r.p.P.schema in
        {
          p =
            {
              P.node = P.Union_p { l = l.p; r = r.p; rmap };
              schema = l.p.P.schema;
              est = l.p.P.est +. r.p.P.est;
            };
          dmap = List.map (fun (a, d) -> (a, d *. 2.)) l.dmap;
        }
    | Diff (a, Join (a', g))
      when a = a' && List.for_all (fun x -> List.mem x (attrs_of db a)) (attrs_of db g) ->
        (* a - (a ⋈ g), g's attributes among a's, is the anti-join a ▷ g *)
        anti_apply (tr a) (attrs_of db g) g
    | Diff (a, b) ->
        let l = tr a and r = tr b in
        let rmap = align l.p.P.schema r.p.P.schema in
        {
          p =
            {
              P.node = P.Diff_p { l = l.p; r = r.p; rmap };
              schema = l.p.P.schema;
              est = l.p.P.est;
            };
          dmap = l.dmap;
        }
  and flatten e acc =
    match e with Join (a, b) -> flatten a (flatten b acc) | _ -> e :: acc
  and strip_joins = function
    | Join _ as j -> Some (flatten j [])
    | _ -> None
  and align lsch rsch =
    (* map: output slot i of the result takes rrow.(align.(i)) *)
    if Array.length lsch <> Array.length rsch then
      err "planner: union/diff schemas differ in arity";
    Array.map (fun a -> slot_of rsch a) lsch
  and project_to ns c =
    let out = Array.of_list (List.map (slot_of c.p.P.schema) ns) in
    let schema = Array.of_list ns in
    let p =
      (* peephole: compose with scan/table/projection output maps *)
      match c.p.P.node with
      | P.Scan { rel; eqs; consts; out = out0 } ->
          {
            P.node =
              P.Scan
                { rel; eqs; consts; out = Array.map (fun i -> out0.(i)) out };
            schema;
            est = c.p.P.est;
          }
      | P.Table { rel; out = out0 } ->
          {
            P.node = P.Table { rel; out = Array.map (fun i -> out0.(i)) out };
            schema;
            est = c.p.P.est;
          }
      | P.Proj (out0, inner) ->
          {
            P.node = P.Proj (Array.map (fun i -> out0.(i)) out, inner);
            schema;
            est = c.p.P.est;
          }
      | _ -> { P.node = P.Proj (out, c.p); schema; est = c.p.P.est }
    in
    { p; dmap = List.filter (fun (a, _) -> List.mem a ns) c.dmap }
  and resolve_spred schema p0 =
    match p0 with
    | Eq_attr (a, b) -> P.SEq (slot_of schema a, slot_of schema b)
    | Eq_const (a, v) -> P.SEqc (slot_of schema a, v)
    | Not_p p -> P.SNot (resolve_spred schema p)
    | And_p (p, q) -> P.SAnd (resolve_spred schema p, resolve_spred schema q)
    | Or_p (p, q) -> P.SOr (resolve_spred schema p, resolve_spred schema q)
  and filter_cand p0 c =
    (* peephole: positional equalities/constants fuse into a Scan *)
    let rec fuse cs (node : P.node) =
      match (node, cs) with
      | _, [] -> Some node
      | P.Scan { rel; eqs; consts; out }, c0 :: rest -> (
          match c0 with
          | Eq_attr (a, b) ->
              let i = out.(slot_of c.p.P.schema a)
              and j = out.(slot_of c.p.P.schema b) in
              fuse rest (P.Scan { rel; eqs = (i, j) :: eqs; consts; out })
          | Eq_const (a, v) ->
              let i = out.(slot_of c.p.P.schema a) in
              fuse rest (P.Scan { rel; eqs; consts = (i, v) :: consts; out })
          | _ -> None)
      | _ -> None
    in
    let sel_est = Float.max 1. (c.p.P.est *. 0.5) in
    match fuse (conjuncts p0) c.p.P.node with
    | Some node -> { c with p = { c.p with P.node = node; est = sel_est } }
    | None ->
        let sp = resolve_spred c.p.P.schema p0 in
        {
          c with
          p = { P.node = P.Filter (sp, c.p); schema = c.p.P.schema; est = sel_est };
        }
  (* ---- join planning ---- *)
  and plan_join pending leaves =
    (* classify leaves *)
    let adoms = ref [] (* padding attrs *)
    and antis = ref [] (* (attr list, inner expr) from compiled negation *)
    and reals = ref [] in
    let rec is_adom_product e =
      match adom_attr e with
      | Some x -> Some [ x ]
      | None -> (
          match e with
          | Join (a, b) -> (
              match (is_adom_product a, is_adom_product b) with
              | Some xs, Some ys -> Some (xs @ ys)
              | _ -> None)
          | _ -> None)
    in
    List.iter
      (fun leaf ->
        match adom_attr leaf with
        | Some x -> adoms := x :: !adoms
        | None -> (
            match leaf with
            | Diff (pad, g) when is_adom_product pad <> None -> (
                let xs = Option.get (is_adom_product pad) in
                match attrs_of db g with
                | ga when SSet.equal (SSet.of_list ga) (SSet.of_list xs) ->
                    antis := (xs, g) :: !antis
                | _ -> reals := tr leaf :: !reals
                | exception Schema_error _ -> reals := tr leaf :: !reals)
            | _ -> reals := tr leaf :: !reals))
      leaves;
    let pending = ref pending and adoms = ref !adoms and antis = ref !antis in
    let reals = List.sort (fun a b -> Float.compare a.p.P.est b.p.P.est) !reals in
    (* GYO: if the real leaves form an acyclic hypergraph, run a semijoin
       full reducer before joining. *)
    let reals =
      if List.length reals >= 3 && !pending = [] then
        let arr = Array.of_list reals in
        let edges =
          Array.map (fun c -> SSet.of_list (Array.to_list c.p.P.schema)) arr
        in
        match gyo edges with
        | None -> reals
        | Some order ->
            let plans = Array.map (fun c -> { c with p = cached c.p }) arr in
            let semi ~anti:_ big small =
              let shared =
                List.filter
                  (fun a -> Array.mem a small.p.P.schema)
                  (Array.to_list big.p.P.schema)
              in
              let lkey =
                Array.of_list (List.map (slot_of big.p.P.schema) shared)
              and rkey =
                Array.of_list (List.map (slot_of small.p.P.schema) shared)
              in
              {
                big with
                p =
                  cached
                    {
                      P.node =
                        P.SemiJoin
                          { l = big.p; r = small.p; lkey; rkey; anti = false };
                      schema = big.p.P.schema;
                      est = Float.max 1. (big.p.P.est *. 0.7);
                    };
              }
            in
            (* forward pass: reduce each witness by its ear *)
            List.iter
              (fun (ear, wit) ->
                plans.(wit) <- semi ~anti:false plans.(wit) plans.(ear))
              order;
            (* backward pass: reduce each ear by its (already reduced)
               witness *)
            List.iter
              (fun (ear, wit) ->
                plans.(ear) <- semi ~anti:false plans.(ear) plans.(wit))
              (List.rev order);
            Array.to_list plans
      else reals
    in
    let bound c = SSet.of_list (Array.to_list c.p.P.schema) in
    (* start with the cheapest real leaf; if none, with an adom column *)
    let acc, rest =
      match List.sort (fun a b -> Float.compare a.p.P.est b.p.P.est) reals with
      | c :: rest -> (ref c, ref rest)
      | [] -> (
          match !adoms with
          | x :: tl ->
              adoms := tl;
              (ref (adom_cand x), ref [])
          | [] -> (
              (* e.g. a pure-inequality query: every leaf is an anti *)
              match !antis with
              | (xs, g) :: tl ->
                  antis := tl;
                  (ref (tr (Diff (pad_expr xs, g))), ref [])
              | [] -> err "planner: empty join"))
    in
    let changed = ref true in
    let consume_unary () =
      (* anti-semijoins, filters and variable-copies applicable now *)
      let b = bound !acc in
      (* padding columns already provided by a real leaf are no-ops: adom
         holds the whole domain *)
      let still = List.filter (fun x -> not (SSet.mem x b)) !adoms in
      if List.length still <> List.length !adoms then begin
        adoms := still;
        changed := true
      end;
      (* anti leaves whose attributes are all bound *)
      let app, keep =
        List.partition (fun (xs, _) -> List.for_all (fun x -> SSet.mem x b) xs) !antis
      in
      antis := keep;
      List.iter
        (fun (xs, g) ->
          changed := true;
          acc := anti_apply !acc xs g)
        app;
      (* pending conjuncts whose attributes are all bound *)
      let b = bound !acc in
      let app, keep =
        List.partition (fun c -> SSet.subset (pred_attrs c) b) !pending
      in
      pending := keep;
      (match conj app with
      | None -> ()
      | Some p ->
          changed := true;
          acc := filter_cand p !acc);
      (* x = y where x is bound and y exists only as padding: extend by
         copying the slot instead of joining adom and filtering *)
      let rec copy_loop () =
        let b = bound !acc in
        let found =
          List.find_opt
            (fun c ->
              match c with
              | Eq_attr (x, y) ->
                  (SSet.mem x b && List.mem y !adoms
                   && not (SSet.mem y b))
                  || (SSet.mem y b && List.mem x !adoms
                      && not (SSet.mem x b))
              | _ -> false)
            !pending
        in
        match found with
        | Some (Eq_attr (x, y) as c) ->
            let src, dst = if SSet.mem x (bound !acc) then (x, y) else (y, x) in
            pending := List.filter (fun c' -> c' != c) !pending;
            adoms := List.filter (fun a -> a <> dst) !adoms;
            let sch = !acc.p.P.schema in
            let n = Array.length sch in
            let out = Array.init (n + 1) (fun i -> if i < n then i else slot_of sch src) in
            let schema = Array.append sch [| dst |] in
            acc :=
              {
                p = { P.node = P.Proj (out, !acc.p); schema; est = !acc.p.P.est };
                dmap = (dst, d_of !acc src) :: !acc.dmap;
              };
            changed := true;
            copy_loop ()
        | _ -> ()
      in
      copy_loop ()
    in
    (* greedy: repeatedly join the next cheapest connected leaf *)
    while !rest <> [] || !adoms <> [] || !antis <> [] || !pending <> [] do
      changed := false;
      consume_unary ();
      (match !rest with
      | [] -> ()
      | leaves ->
          let b = bound !acc in
          (* join keys contributed by pending cross equalities *)
          let eq_links leaf =
            List.filter_map
              (fun c ->
                match c with
                | Eq_attr (x, y)
                  when SSet.mem x b && Array.mem y leaf.p.P.schema
                       && not (SSet.mem y b) ->
                    Some (c, (x, y))
                | Eq_attr (x, y)
                  when SSet.mem y b && Array.mem x leaf.p.P.schema
                       && not (SSet.mem x b) ->
                    Some (c, (y, x))
                | _ -> None)
              !pending
          in
          let connected leaf =
            Array.exists (fun a -> SSet.mem a b) leaf.p.P.schema
            || eq_links leaf <> []
          in
          let cands = List.filter connected leaves in
          let pool = if cands = [] then leaves else cands in
          let cost leaf =
            let shared =
              List.filter (fun a -> SSet.mem a b)
                (Array.to_list leaf.p.P.schema)
            in
            est_join !acc leaf shared
          in
          let best =
            List.fold_left
              (fun acc_best leaf ->
                match acc_best with
                | None -> Some (leaf, cost leaf)
                | Some (_, c0) ->
                    let c = cost leaf in
                    if c < c0 then Some (leaf, c) else acc_best)
              None pool
          in
          (match best with
          | None -> ()
          | Some (leaf, est) ->
              rest := List.filter (fun l -> l != leaf) !rest;
              let links = eq_links leaf in
              List.iter
                (fun (c, _) -> pending := List.filter (fun c' -> c' != c) !pending)
                links;
              acc := join_step !acc leaf (List.map snd links) est;
              changed := true));
      if not !changed then begin
        (* nothing applicable: pad with one adom column (cross product) *)
        match !adoms with
        | x :: tl ->
            adoms := tl;
            let leaf = adom_cand x in
            acc := join_step !acc leaf [] (!acc.p.P.est *. leaf.p.P.est)
        | [] -> (
            (* leftover anti leaves mention unbound attrs: plan them as
               plain Diff leaves and keep going *)
            match !antis with
            | (xs, g) :: tl ->
                antis := tl;
                rest := tr (Diff (pad_expr xs, g)) :: !rest
            | [] ->
                if !pending <> [] then
                  err "planner: unresolvable selection attributes"
                else ())
      end
    done;
    consume_unary ();
    !acc
  and pad_expr xs =
    match xs with
    | [] -> err "planner: nullary anti leaf"
    | x0 :: xs' ->
        List.fold_left (fun acc x -> Join (acc, adom_as x)) (adom_as x0) xs'
  and adom_cand x =
    let s = rstat st adom in
    {
      p =
        {
          P.node = P.Scan { rel = adom; eqs = []; consts = []; out = [| 0 |] };
          schema = [| x |];
          est = float_of_int s.rows;
        };
      dmap = [ (x, float_of_int s.rows) ];
    }
  (* anti-semijoin of acc against g (all attrs of g bound in acc) *)
  and anti_apply acc xs g =
    let c = tr g in
    let lkey = Array.of_list (List.map (slot_of acc.p.P.schema) xs) in
    let node =
      (* access path: probe the base index directly when g is a bare scan
         whose positions are fully determined *)
      match c.p.P.node with
      | P.Scan { rel; eqs; consts; out } -> (
          let arity =
            match Database.find db rel with
            | Ok r -> Relation.arity r
            | Error m -> err "%s" m
          in
          match probe_pat ~arity ~eqs ~consts ~out ~schema:c.p.P.schema acc with
          | Some pat -> P.IdxProbe { l = acc.p; rel; pat; anti = true }
          | None ->
              let rkey =
                Array.of_list
                  (List.map (slot_of c.p.P.schema) xs)
              in
              P.SemiJoin { l = acc.p; r = c.p; lkey; rkey; anti = true })
      | _ ->
          let rkey = Array.of_list (List.map (slot_of c.p.P.schema) xs) in
          P.SemiJoin { l = acc.p; r = c.p; lkey; rkey; anti = true }
    in
    {
      acc with
      p =
        {
          P.node;
          schema = acc.p.P.schema;
          est = Float.max 1. (acc.p.P.est *. 0.5);
        };
    }
  (* Build an index probe pattern for a scan leaf all of whose emitted
     attributes are bound in [acc]; returns None if some position cannot
     be determined, or if a residual constraint would be lost. The probe
     checks only membership of the pattern tuple, so every [consts]/[eqs]
     constraint must either pin a previously free position or be
     provably implied by the pattern — a const on a position already
     determined otherwise, or an equality between two positions
     determined to different sources, cannot be checked at probe time
     and must fall back to SemiJoin, whose leaf execution enforces them. *)
  and probe_pat ~arity ~eqs ~consts ~out ~schema acc =
    let exception Residual in
    let pat = Array.make arity None in
    let determine pos p =
      match pat.(pos) with
      | None -> pat.(pos) <- Some p
      | Some p' -> if p' <> p then raise Residual
    in
    try
      Array.iteri
        (fun slot pos ->
          determine pos (P.PSlot (slot_of acc.p.P.schema schema.(slot))))
        out;
      List.iter (fun (pos, v) -> determine pos (P.PConst v)) consts;
      (* propagate positional equalities until fixpoint *)
      let again = ref true in
      while !again do
        again := false;
        List.iter
          (fun (i, j) ->
            match (pat.(i), pat.(j)) with
            | Some p, None ->
                pat.(j) <- Some p;
                again := true
            | None, Some p ->
                pat.(i) <- Some p;
                again := true
            | _ -> ())
          eqs
      done;
      (* every equality must hold by construction of the pattern: two
         positions carrying different sources may still probe a tuple
         the scan's eq filter would have rejected *)
      List.iter
        (fun (i, j) ->
          match (pat.(i), pat.(j)) with
          | Some a, Some b when a <> b -> raise Residual
          | _ -> ())
        eqs;
      if Array.for_all Option.is_some pat then
        Some (Array.map Option.get pat)
      else None
    with Residual -> None
  and join_step acc leaf extra_keys est =
    let b = SSet.of_list (Array.to_list acc.p.P.schema) in
    let shared =
      List.filter (fun a -> SSet.mem a b) (Array.to_list leaf.p.P.schema)
    in
    let new_attrs =
      List.filter
        (fun a -> not (SSet.mem a b))
        (Array.to_list leaf.p.P.schema)
    in
    let keys_est = shared @ List.map fst extra_keys in
    let est = Float.min est (est_join acc leaf keys_est) in
    if new_attrs = [] && extra_keys = [] then begin
      (* the leaf adds nothing: semijoin (or index probe) *)
      match leaf.p.P.node with
      | P.Scan { rel; eqs; consts; out } when not (SSet.is_empty (SSet.of_list shared)) -> (
          let arity =
            match Database.find db rel with
            | Ok r -> Relation.arity r
            | Error m -> err "%s" m
          in
          match
            probe_pat ~arity ~eqs ~consts ~out ~schema:leaf.p.P.schema acc
          with
          | Some pat ->
              {
                acc with
                p =
                  {
                    P.node = P.IdxProbe { l = acc.p; rel; pat; anti = false };
                    schema = acc.p.P.schema;
                    est;
                  };
              }
          | None -> semijoin_step acc leaf shared est)
      | _ -> semijoin_step acc leaf shared est
    end
    else begin
      (* index-nested-loop: bare binary scan, first coordinate bound,
         second fresh, source structure CSR-backed *)
      let idx_loop =
        match leaf.p.P.node with
        | P.Scan { rel; eqs = []; consts = []; out = [| 0; 1 |] }
          when extra_keys = []
               && List.length shared = 1
               && List.length new_attrs = 1
               && leaf.p.P.schema.(0) = List.hd shared -> (
            match Database.source db with
            | Some s
              when List.mem_assoc rel
                     (Fmtk_logic.Signature.rels (Structure.signature s))
                   && Index.rows (Structure.index s rel) <> None ->
                let lslot = slot_of acc.p.P.schema (List.hd shared) in
                Some
                  {
                    P.node = P.IdxLoop { l = acc.p; rel; lslot };
                    schema = Array.append acc.p.P.schema [| List.hd new_attrs |];
                    est;
                  }
            | _ -> None)
        | _ -> None
      in
      let p =
        match idx_loop with
        | Some p -> p
        | None ->
            let lkey =
              Array.of_list
                (List.map (slot_of acc.p.P.schema) shared
                @ List.map (fun (x, _) -> slot_of acc.p.P.schema x) extra_keys)
            in
            let rkey =
              Array.of_list
                (List.map (slot_of leaf.p.P.schema) shared
                @ List.map (fun (_, y) -> slot_of leaf.p.P.schema y) extra_keys)
            in
            let ext_attrs =
              List.filter
                (fun a ->
                  (not (SSet.mem a b))
                  && not (List.exists (fun (_, y) -> y = a) extra_keys))
                (Array.to_list leaf.p.P.schema)
            in
            (* attrs matched through extra keys still appear as columns *)
            let ext_attrs = ext_attrs @ List.map snd extra_keys in
            let rext =
              Array.of_list (List.map (slot_of leaf.p.P.schema) ext_attrs)
            in
            {
              P.node = P.HashJoin { l = acc.p; r = leaf.p; lkey; rkey; rext };
              schema = Array.append acc.p.P.schema (Array.of_list ext_attrs);
              est;
            }
      in
      { p; dmap = join_dmap acc leaf (shared @ List.map fst extra_keys) est }
    end
  and semijoin_step acc leaf shared est =
    let lkey = Array.of_list (List.map (slot_of acc.p.P.schema) shared) in
    let rkey = Array.of_list (List.map (slot_of leaf.p.P.schema) shared) in
    {
      acc with
      p =
        {
          P.node = P.SemiJoin { l = acc.p; r = leaf.p; lkey; rkey; anti = false };
          schema = acc.p.P.schema;
          est;
        };
    }
  in
  match
    let e' = rewrite db e in
    let c = tr e' in
    (* the greedy join order permutes columns; restore the logical attr
       order so the physical result is positionally interchangeable with
       [Algebra.eval] on the same expression *)
    let want = attrs_of db e' in
    if Array.to_list c.p.P.schema = want then c else project_to want c
  with
  | c -> Ok c.p
  | exception Plan_error m -> Error m
  | exception Schema_error m -> Error m

(* ---------- explain ---------- *)

type explanation = {
  logical : expr;
  optimized : expr;
  physical : Physical.t;
}

let explain ?stats db e =
  match rewrite db e with
  | exception Schema_error m -> Error m
  | opt -> (
      match plan ?stats db opt with
      | Error m -> Error m
      | Ok p -> Ok { logical = e; optimized = opt; physical = p })
