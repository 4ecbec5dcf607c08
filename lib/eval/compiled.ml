module Formula = Fmtk_logic.Formula
module Term = Fmtk_logic.Term
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Index = Fmtk_structure.Index
module Csr = Fmtk_structure.Csr
module Tuple = Fmtk_structure.Tuple
module Budget = Fmtk_runtime.Budget

(* Where the fixpoint closures count their work and poll their budget;
   FO closures never read it. A private counter record and an unlimited
   poller unless an entry point points them elsewhere. *)
type ctx = { mutable stats : Eval.stats; mutable poller : Budget.poller }

type t = {
  structure : Structure.t;
  free : string list; (* slot order of the free variables *)
  nslots : int;
  code : int array -> bool;
  ctx : ctx;
  caches : (int array, Bytes.t) Hashtbl.t list;
      (* one per structurally distinct cached fixpoint node; [] for
         formulas without one *)
}

(* Compile-time variable scope: name -> slot. Shadowing is handled by
   consing, exactly like the interpreter's environment — except the lookup
   happens once, at compile time. *)
type scope = (string * int) list

(* A fixpoint's stage relation, in the second (relation) scope: its arity
   and the current stage, one byte per mixed-radix tuple code. *)
type stage = { arity : int; cell : Bytes.t ref }

(* The candidates of a quantifier's binder: the whole domain, or the
   adjacency row of the value of the guard's other end. *)
type range = Domain | Row of Csr.t * (int array -> int)

let rec fixpoint_free f =
  match f with
  | Formula.Ifp _ -> false
  | f -> List.for_all fixpoint_free (Formula.subformulas f)

let rec conjuncts = function
  | Formula.And (g, h) -> conjuncts g @ conjuncts h
  | f -> [ f ]

(* The three quantifier walks over a binder's candidates, each stopping
   as soon as its answer is known. A [Row] is empty when the value of the
   guard's other end lies outside the domain. *)

let exists_in n range slot cg : int array -> bool =
  match range with
  | Domain ->
      fun env ->
        let rec scan e =
          e < n
          && ((env.(slot) <- e;
               cg env)
             || scan (e + 1))
        in
        scan 0
  | Row (rows, other) ->
      let targets = Csr.targets rows and nodes = Csr.nodes rows in
      fun env ->
        let u = other env in
        u >= 0 && u < nodes
        &&
        let stop = Csr.row_end rows u in
        let rec walk i =
          i < stop
          && ((env.(slot) <- targets.(i);
               cg env)
             || walk (i + 1))
        in
        walk (Csr.row_start rows u)

let forall_in n range slot cg : int array -> bool =
  match range with
  | Domain ->
      fun env ->
        let rec scan e =
          e >= n
          || ((env.(slot) <- e;
               cg env)
             && scan (e + 1))
        in
        scan 0
  | Row (rows, other) ->
      let targets = Csr.targets rows and nodes = Csr.nodes rows in
      fun env ->
        let u = other env in
        u < 0 || u >= nodes
        ||
        let stop = Csr.row_end rows u in
        let rec walk i =
          i >= stop
          || ((env.(slot) <- targets.(i);
               cg env)
             && walk (i + 1))
        in
        walk (Csr.row_start rows u)

(* A bounded witness count: stop at the [k]-th witness, or once too few
   candidates remain. *)
let count_in n range slot cg k : int array -> bool =
  match range with
  | Domain ->
      fun env ->
        let rec scan e found =
          found >= k
          || (n - e + found >= k
             && (env.(slot) <- e;
                 scan (e + 1) (if cg env then found + 1 else found)))
        in
        scan 0 0
  | Row (rows, other) ->
      let targets = Csr.targets rows and nodes = Csr.nodes rows in
      fun env ->
        let u = other env in
        if u < 0 || u >= nodes then k <= 0
        else
          let stop = Csr.row_end rows u in
          let rec walk i found =
            found >= k
            || (stop - i + found >= k
               && (env.(slot) <- targets.(i);
                   walk (i + 1) (if cg env then found + 1 else found)))
          in
          walk (Csr.row_start rows u) 0

let compile_term a (scope : scope) t : int array -> int =
  match t with
  | Term.Var x -> (
      match List.assoc_opt x scope with
      | Some slot -> fun env -> env.(slot)
      | None -> invalid_arg (Printf.sprintf "Compiled: unbound variable %S" x))
  | Term.Const c -> (
      match Structure.const a c with
      | e -> fun _ -> e
      | exception Not_found ->
          invalid_arg (Printf.sprintf "Compiled: uninterpreted constant %S" c))

(* The code [Σ t_i · n^(k-1-i)] of a term tuple: its position in the
   lexicographic order of {!Tuple.all}. *)
let compile_code n cts : int array -> int =
  match cts with
  | [] -> fun _ -> 0
  | [ c0 ] -> c0
  | c0 :: rest ->
      let rest = Array.of_list rest in
      fun env ->
        let code = ref (c0 env) in
        for i = 0 to Array.length rest - 1 do
          code := (!code * n) + rest.(i) env
        done;
        !code

(* [n^k], refused before it overflows or outgrows a [Bytes]. *)
let stage_size n k =
  let rec go acc i =
    if i = 0 then acc
    else if n > 0 && acc > Sys.max_string_length / n then
      invalid_arg
        (Printf.sprintf "Compiled: %d^%d stage cells do not fit a Bytes" n k)
    else go (acc * n) (i - 1)
  in
  go 1 k

let compile_with a ~vars f =
  (match Formula.repeated vars with
  | Some x -> invalid_arg (Printf.sprintf "Compiled: variable %S listed twice" x)
  | None -> ());
  (match
     List.find_opt (fun x -> not (List.mem x vars)) (Formula.free_vars f)
   with
  | Some x ->
      invalid_arg (Printf.sprintf "Compiled: free variable %S not listed" x)
  | None -> ());
  let n = Structure.size a in
  let nslots = ref (List.length vars) in
  let ctx =
    { stats = Eval.new_stats (); poller = Budget.poller Budget.unlimited }
  in
  (* Structurally equal fixpoint nodes share one cache, as in Eval. *)
  let caches = ref [] in
  let cache_for node =
    match List.find_opt (fun (g, _) -> Formula.equal g node) !caches with
    | Some (_, tbl) -> tbl
    | None ->
        let tbl = Hashtbl.create 8 in
        caches := (node, tbl) :: !caches;
        tbl
  in
  (* Adjacency rows for guards, built once per compiled formula: the
     forward rows of a CSR-backed relation are its CSR, those of a
     set-backed one come from its (sorted) tuple set, and reverse rows
     are the forward rows transposed. *)
  let rows = ref [] in
  let rec rows_of r idx ~forward =
    match (forward, Index.rows idx) with
    | true, Some csr -> csr
    | _ -> (
        match List.assoc_opt (r, forward) !rows with
        | Some csr -> csr
        | None ->
            let csr =
              if forward then Csr.of_tuple_set ~n (Structure.rel a r)
              else Csr.transpose (rows_of r idx ~forward:true)
            in
            rows := ((r, forward), csr) :: !rows;
            csr)
  in
  (* A guard for binder [x]: [R(t,x)] or [R(x,t)] on a binary structure
     relation [R], with [t] not [x]; [x] then ranges over the forward
     (resp. reverse) row of [t]'s value. *)
  let guard scope rscope x = function
    | Formula.Rel (r, [ t1; t2 ]) when not (List.mem_assoc r rscope) -> (
        let is_x = function
          | Term.Var y -> String.equal x y
          | Term.Const _ -> false
        in
        match Structure.index a r with
        | exception Not_found -> None
        | idx when Index.arity idx <> 2 -> None
        | idx -> (
            let row ~forward t =
              Some (Row (rows_of r idx ~forward, compile_term a scope t))
            in
            match (is_x t1, is_x t2) with
            | false, true -> row ~forward:true t1
            | true, false -> row ~forward:false t2
            | _ -> None))
    | _ -> None
  in
  (* The range of [x] given by the leftmost guard among [g]'s conjuncts,
     and [g] without it. Only a fixpoint-free body is guarded: skipping
     candidates and reordering conjuncts is then unobservable, since FO
     closures neither count nor poll. *)
  let split_guard scope rscope x g =
    let rec pick before = function
      | [] -> (Domain, g)
      | c :: after -> (
          match guard scope rscope x c with
          | Some range -> (range, Formula.conj (List.rev_append before after))
          | None -> pick (c :: before) after)
    in
    if fixpoint_free g then pick [] (conjuncts g) else (Domain, g)
  in
  let scope0 : scope = List.mapi (fun i x -> (x, i)) vars in
  let rec go (scope : scope) rscope depth f : int array -> bool =
    (match f with
    | Formula.Exists _ | Formula.Forall _ | Formula.Count_geq _ ->
        nslots := max !nslots (depth + 1)
    | _ -> ());
    match f with
    | Formula.True -> fun _ -> true
    | Formula.False -> fun _ -> false
    | Formula.Eq (t, u) ->
        let ct = compile_term a scope t and cu = compile_term a scope u in
        fun env -> ct env = cu env
    | Formula.Rel (r, ts) -> (
        let cts = List.map (compile_term a scope) ts in
        match List.assoc_opt r rscope with
        | Some { arity; cell } -> (
            if List.length ts <> arity then
              invalid_arg
                (Printf.sprintf "Compiled: relation variable %S has arity %d" r
                   arity);
            (* A probe into the current stage: no allocation. *)
            match cts with
            | [ c0; c1 ] ->
                fun env -> Bytes.get !cell ((c0 env * n) + c1 env) <> '\000'
            | _ ->
                let code = compile_code n cts in
                fun env -> Bytes.get !cell (code env) <> '\000')
        | None -> (
            let idx =
              match Structure.index a r with
              | idx -> idx
              | exception Not_found ->
                  invalid_arg (Printf.sprintf "Compiled: unknown relation %S" r)
            in
            (* Arity-specialized probes: no per-atom tuple allocation. A
               wrong-arity atom is a constant [false], as for the naive
               evaluator's set probe. *)
            match cts with
            | _ when List.length cts <> Index.arity idx -> fun _ -> false
            | [] -> fun _ -> Index.mem idx [||]
            | [ c0 ] -> fun env -> Index.mem1 idx (c0 env)
            | [ c0; c1 ] -> fun env -> Index.mem2 idx (c0 env) (c1 env)
            | _ ->
                let cts = Array.of_list cts in
                let scratch = Array.make (Array.length cts) 0 in
                fun env ->
                  Array.iteri (fun i c -> scratch.(i) <- c env) cts;
                  Index.mem idx scratch))
    | Formula.Not g ->
        let cg = go scope rscope depth g in
        fun env -> not (cg env)
    | Formula.And (g, h) ->
        let cg = go scope rscope depth g and ch = go scope rscope depth h in
        fun env -> cg env && ch env
    | Formula.Or (g, h) ->
        let cg = go scope rscope depth g and ch = go scope rscope depth h in
        fun env -> cg env || ch env
    | Formula.Implies (g, h) ->
        let cg = go scope rscope depth g and ch = go scope rscope depth h in
        fun env -> (not (cg env)) || ch env
    | Formula.Iff (g, h) ->
        let cg = go scope rscope depth g and ch = go scope rscope depth h in
        fun env -> cg env = ch env
    | Formula.Exists (x, g) ->
        let range, g = split_guard scope rscope x g in
        let cg = go ((x, depth) :: scope) rscope (depth + 1) g in
        exists_in n range depth cg
    | Formula.Forall (x, g) ->
        (* [∀x (φ → ψ)] fails exactly at an [x] satisfying [φ], so [φ]'s
           guard bounds the search for a counterexample. *)
        let range, g =
          match g with
          | Formula.Implies (phi, psi) when fixpoint_free g -> (
              match split_guard scope rscope x phi with
              | range, Formula.True -> (range, psi)
              | range, phi -> (range, Formula.Implies (phi, psi)))
          | _ -> (Domain, g)
        in
        let cg = go ((x, depth) :: scope) rscope (depth + 1) g in
        forall_in n range depth cg
    | Formula.Count_geq (k, x, g) ->
        let range, g = split_guard scope rscope x g in
        let cg = go ((x, depth) :: scope) rscope (depth + 1) g in
        count_in n range depth cg k
    | Formula.Ifp (r, xs, body, ts) ->
        (match Formula.repeated xs with
        | Some x ->
            invalid_arg (Printf.sprintf "Compiled: fixpoint %S binds %S twice" r x)
        | None -> ());
        let k = List.length xs in
        if List.length ts <> k then
          invalid_arg
            (Printf.sprintf "Compiled: fixpoint %S of arity %d applied to %d terms"
               r k (List.length ts));
        let size = stage_size n k in
        (* The tuple variables take slots [depth, depth + k). *)
        nslots := max !nslots (depth + k);
        let cell = ref Bytes.empty in
        let cbody =
          go
            (List.mapi (fun i x -> (x, depth + i)) xs @ scope)
            ((r, { arity = k; cell }) :: rscope)
            (depth + k) body
        in
        let test = compile_code n (List.map (compile_term a scope) ts) in
        (* Step the tuple slots to the next code, last slot fastest. *)
        let rec advance env i =
          if i >= depth then
            if env.(i) + 1 < n then env.(i) <- env.(i) + 1
            else (
              env.(i) <- 0;
              advance env (i - 1))
        in
        (* [S_{i+1} = S_i ∪ {ā | body(S_i, ā)}] in [!cell], from the
           empty stage it holds on entry, exactly as Eval: every code is
           tested and counted, the body skipped for members of [S_i], and
           the additions applied once the stage is over. *)
        let rec iterate env =
          let stage = !cell in
          ctx.stats.stages <- ctx.stats.stages + 1;
          Array.fill env depth k 0;
          let added = ref [] in
          for code = 0 to size - 1 do
            Budget.check ctx.poller;
            ctx.stats.tuples_tested <- ctx.stats.tuples_tested + 1;
            if Bytes.get stage code = '\000' && cbody env then
              added := code :: !added;
            advance env (depth + k - 1)
          done;
          match !added with
          | [] -> ()
          | added ->
              List.iter (fun code -> Bytes.set stage code '\001') added;
              iterate env
        in
        let fixpoint =
          if rscope <> [] then (fun env ->
            (* Inside another fixpoint's body the stage relations in scope
               change between visits: recompute every time, in one reused
               cell. *)
            if Bytes.length !cell <> size then cell := Bytes.create size;
            Bytes.fill !cell 0 size '\000';
            iterate env;
            !cell)
          else
            (* Otherwise the set depends only on the body's outer free
               variables: cache it on their values for this call. *)
            let outer =
              List.filter_map
                (fun x -> if List.mem x xs then None else List.assoc_opt x scope)
                (Formula.free_vars body)
              |> Array.of_list
            in
            let tbl = cache_for f in
            fun env ->
              let key = Array.map (fun slot -> env.(slot)) outer in
              match Hashtbl.find_opt tbl key with
              | Some set -> set
              | None ->
                  cell := Bytes.make size '\000';
                  iterate env;
                  Hashtbl.replace tbl key !cell;
                  !cell
        in
        fun env -> Bytes.get (fixpoint env) (test env) <> '\000'
    | Formula.Mem _ | Formula.Exists_set _ | Formula.Forall_set _
    | Formula.Exists_rel _ | Formula.Forall_rel _ ->
        invalid_arg
          (Printf.sprintf "Compiled: second-order formula %s"
             (Formula.to_string f))
  in
  let code = go scope0 [] (List.length vars) f in
  {
    structure = a;
    free = vars;
    nslots = !nslots;
    code;
    ctx;
    caches = List.map snd !caches;
  }

let compile a f = compile_with a ~vars:(Formula.free_vars f) f
let free_vars t = t.free
let structure t = t.structure

(* Every entry-point call starts with empty fixpoint caches. *)
let start t =
  List.iter Hashtbl.reset t.caches;
  Array.make (max 1 t.nslots) 0

let instrument ?stats ?budget t =
  Option.iter (fun s -> t.ctx.stats <- s) stats;
  Option.iter (fun b -> t.ctx.poller <- Budget.poller b) budget;
  t

let run t args =
  let nfree = List.length t.free in
  if Array.length args <> nfree then
    invalid_arg
      (Printf.sprintf "Compiled.run: %d arguments for %d free variables"
         (Array.length args) nfree);
  let env = start t in
  Array.blit args 0 env 0 nfree;
  t.code env

let holds t ~env =
  run t
    (Array.of_list
       (List.map
          (fun x ->
            match List.assoc_opt x env with
            | Some e -> e
            | None ->
                invalid_arg
                  (Printf.sprintf "Compiled: unbound variable %S" x))
          t.free))

let sat ?stats ?budget a f =
  (match Formula.free_vars f with
  | [] -> ()
  | fv ->
      invalid_arg
        (Printf.sprintf "Compiled.sat: not a sentence (free: %s)"
           (String.concat ", " fv)));
  let t = instrument ?stats ?budget (compile a f) in
  t.code (start t)

let definable_relation_of t =
  let k = List.length t.free in
  let n = Structure.size t.structure in
  let env = start t in
  let acc = ref Tuple.Set.empty in
  let rec enum i =
    if i = k then (
      if t.code env then acc := Tuple.Set.add (Array.sub env 0 k) !acc)
    else
      for e = 0 to n - 1 do
        env.(i) <- e;
        enum (i + 1)
      done
  in
  enum 0;
  !acc

let definable_relation ?stats ?budget a f ~vars =
  definable_relation_of (instrument ?stats ?budget (compile_with a ~vars f))

let answers a f =
  let vars = Formula.free_vars f in
  (vars, definable_relation a f ~vars)
