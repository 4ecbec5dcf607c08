module Formula = Fmtk_logic.Formula
module Term = Fmtk_logic.Term
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure
module Index = Fmtk_structure.Index
module Tuple = Fmtk_structure.Tuple

type t = {
  structure : Structure.t;
  free : string list; (* slot order of the free variables *)
  nslots : int;
  code : int array -> bool;
}

(* Compile-time variable scope: name -> slot. Shadowing is handled by
   consing, exactly like the interpreter's environment — except the lookup
   happens once, at compile time. *)
type scope = (string * int) list

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

let compile_with a ~vars f =
  (match
     List.find_opt (fun x -> not (List.mem x vars)) (Formula.free_vars f)
   with
  | Some x ->
      invalid_arg (Printf.sprintf "Compiled: free variable %S not listed" x)
  | None -> ());
  let n = Structure.size a in
  let nslots = ref (List.length vars) in
  let scope0 : scope = List.mapi (fun i x -> (x, i)) vars in
  let rec go (scope : scope) depth f : int array -> bool =
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
        let idx =
          match Structure.index a r with
          | idx -> idx
          | exception Not_found ->
              invalid_arg (Printf.sprintf "Compiled: unknown relation %S" r)
        in
        let cts = List.map (compile_term a scope) ts in
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
              Index.mem idx scratch)
    | Formula.Not g ->
        let cg = go scope depth g in
        fun env -> not (cg env)
    | Formula.And (g, h) ->
        let cg = go scope depth g and ch = go scope depth h in
        fun env -> cg env && ch env
    | Formula.Or (g, h) ->
        let cg = go scope depth g and ch = go scope depth h in
        fun env -> cg env || ch env
    | Formula.Implies (g, h) ->
        let cg = go scope depth g and ch = go scope depth h in
        fun env -> (not (cg env)) || ch env
    | Formula.Iff (g, h) ->
        let cg = go scope depth g and ch = go scope depth h in
        fun env -> cg env = ch env
    | Formula.Exists (x, g) ->
        let slot = depth in
        let cg = go ((x, slot) :: scope) (depth + 1) g in
        fun env ->
          let rec scan e =
            e < n
            && ((env.(slot) <- e;
                 cg env)
               || scan (e + 1))
          in
          scan 0
    | Formula.Forall (x, g) ->
        let slot = depth in
        let cg = go ((x, slot) :: scope) (depth + 1) g in
        fun env ->
          let rec scan e =
            e >= n
            || ((env.(slot) <- e;
                 cg env)
               && scan (e + 1))
          in
          scan 0
    | Formula.Count_geq (k, x, g) ->
        (* A bounded witness scan: stop at the k-th witness, or once too
           few elements remain. *)
        let slot = depth in
        let cg = go ((x, slot) :: scope) (depth + 1) g in
        fun env ->
          let rec scan e found =
            found >= k
            || (n - e + found >= k
               && (env.(slot) <- e;
                   scan (e + 1) (if cg env then found + 1 else found)))
          in
          scan 0 0
    | Formula.Ifp _ | Formula.Mem _ | Formula.Exists_set _
    | Formula.Forall_set _ | Formula.Exists_rel _ | Formula.Forall_rel _ ->
        invalid_arg
          (Printf.sprintf "Compiled: fixpoint or second-order formula %s"
             (Formula.to_string f))
  in
  let code = go scope0 (List.length vars) f in
  { structure = a; free = vars; nslots = !nslots; code }

let compile a f = compile_with a ~vars:(Formula.free_vars f) f
let free_vars t = t.free
let structure t = t.structure

let run t args =
  let nfree = List.length t.free in
  if Array.length args <> nfree then
    invalid_arg
      (Printf.sprintf "Compiled.run: %d arguments for %d free variables"
         (Array.length args) nfree);
  let env = Array.make (max 1 t.nslots) 0 in
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

let sat a f =
  (match Formula.free_vars f with
  | [] -> ()
  | fv ->
      invalid_arg
        (Printf.sprintf "Compiled.sat: not a sentence (free: %s)"
           (String.concat ", " fv)));
  let t = compile a f in
  t.code (Array.make (max 1 t.nslots) 0)

let definable_relation_of t =
  let k = List.length t.free in
  let n = Structure.size t.structure in
  let env = Array.make (max 1 t.nslots) 0 in
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

let definable_relation a f ~vars = definable_relation_of (compile_with a ~vars f)

let answers a f =
  let vars = Formula.free_vars f in
  (vars, definable_relation a f ~vars)
