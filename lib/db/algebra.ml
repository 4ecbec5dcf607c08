module Structure = Fmtk_structure.Structure
module Signature = Fmtk_logic.Signature
module Tuple = Fmtk_structure.Tuple

type pred =
  | Eq_attr of string * string
  | Eq_const of string * int
  | Not_p of pred
  | And_p of pred * pred
  | Or_p of pred * pred

type expr =
  | Base of string
  | Lit of Relation.t
  | Select of pred * expr
  | Project of string list * expr
  | Rename of (string * string) list * expr
  | Join of expr * expr
  | Union of expr * expr
  | Diff of expr * expr

exception Schema_error of string

let adom = "#adom"
let adom_as x = Rename ([ ("#1", x) ], Base adom)

module Database = struct
  module SMap = Map.Make (String)

  (* Relations are lazy so a plan that drops a padding join (or never scans
     a relation) never pays to materialize it — significant for
     structure-backed instances where [adom] is the whole domain. Each
     is stored with its arity, which is known without forcing it. *)
  type t = {
    rels : (int * Relation.t Lazy.t) SMap.t;
    source : Structure.t option;
  }

  let make bindings =
    let rels =
      List.fold_left
        (fun acc (n, r) -> SMap.add n (Relation.arity r, Lazy.from_val r) acc)
        SMap.empty bindings
    in
    { rels; source = None }

  let find_exn db name =
    match SMap.find_opt name db.rels with
    | Some (_, r) -> Lazy.force r
    | None -> raise (Schema_error (Printf.sprintf "no relation %S" name))

  let find db name =
    match SMap.find_opt name db.rels with
    | Some (_, r) -> Ok (Lazy.force r)
    | None -> Error (Printf.sprintf "no relation %S" name)

  let mem db name = SMap.mem name db.rels
  let names db = List.map fst (SMap.bindings db.rels)
  let arities db = List.map (fun (n, (k, _)) -> (n, k)) (SMap.bindings db.rels)
  let source db = db.source
  let positional k = List.init k (fun i -> Printf.sprintf "#%d" (i + 1))

  let of_structure s =
    let sg = Structure.signature s in
    let rels =
      List.map
        (fun (name, k) ->
          ( name,
            (k, lazy (Relation.of_set (positional k) (Structure.rel s name))) ))
        (Signature.rels sg)
    in
    let domain =
      ( adom,
        ( 1,
          lazy
            (Relation.make [ "#1" ]
               (List.map (fun e -> [| e |]) (Structure.domain s))) ) )
    in
    let consts =
      List.map
        (fun c ->
          ( "@" ^ c,
            (1, lazy (Relation.make [ "#1" ] [ [| Structure.const s c |] ])) ))
        (Signature.consts sg)
    in
    let rels =
      List.fold_left
        (fun acc (n, r) -> SMap.add n r acc)
        SMap.empty
        ((domain :: rels) @ consts)
    in
    { rels; source = Some s }
end

let rec eval_pred p lookup =
  match p with
  | Eq_attr (a, b) -> lookup a = lookup b
  | Eq_const (a, v) -> lookup a = v
  | Not_p q -> not (eval_pred q lookup)
  | And_p (q, r) -> eval_pred q lookup && eval_pred r lookup
  | Or_p (q, r) -> eval_pred q lookup || eval_pred r lookup

let rec eval_exn db expr =
  match expr with
  | Base name -> Database.find_exn db name
  | Lit r -> r
  | Select (p, e) -> Relation.select (fun lk -> eval_pred p lk) (eval_exn db e)
  | Project (names, e) -> Relation.project names (eval_exn db e)
  | Rename (mapping, e) -> Relation.rename mapping (eval_exn db e)
  | Join (a, b) -> Relation.join (eval_exn db a) (eval_exn db b)
  | Union (a, b) -> Relation.union (eval_exn db a) (eval_exn db b)
  | Diff (a, b) -> Relation.diff (eval_exn db a) (eval_exn db b)

let eval db expr =
  match eval_exn db expr with
  | r -> Ok r
  | exception Schema_error m -> Error m
  | exception Invalid_argument m -> Error m

let rec size = function
  | Base _ | Lit _ -> 1
  | Select (_, e) | Project (_, e) | Rename (_, e) -> 1 + size e
  | Join (a, b) | Union (a, b) | Diff (a, b) -> 1 + size a + size b

let rec pp_pred ppf = function
  | Eq_attr (a, b) -> Format.fprintf ppf "%s=%s" a b
  | Eq_const (a, v) -> Format.fprintf ppf "%s=%d" a v
  | Not_p p -> Format.fprintf ppf "!(%a)" pp_pred p
  | And_p (p, q) -> Format.fprintf ppf "(%a & %a)" pp_pred p pp_pred q
  | Or_p (p, q) -> Format.fprintf ppf "(%a | %a)" pp_pred p pp_pred q

let rec pp ppf = function
  | Base name -> Format.pp_print_string ppf name
  | Lit r -> Format.fprintf ppf "<lit:%d rows>" (Relation.cardinality r)
  | Select (p, e) -> Format.fprintf ppf "sel[%a](%a)" pp_pred p pp e
  | Project (names, e) ->
      Format.fprintf ppf "proj[%s](%a)" (String.concat "," names) pp e
  | Rename (mapping, e) ->
      Format.fprintf ppf "ren[%s](%a)"
        (String.concat ","
           (List.map (fun (a, b) -> a ^ "->" ^ b) mapping))
        pp e
  | Join (a, b) -> Format.fprintf ppf "(%a ⋈ %a)" pp a pp b
  | Union (a, b) -> Format.fprintf ppf "(%a ∪ %a)" pp a pp b
  | Diff (a, b) -> Format.fprintf ppf "(%a - %a)" pp a pp b
