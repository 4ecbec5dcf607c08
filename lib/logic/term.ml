type t = Var of string | Const of string

let equal a b =
  match (a, b) with
  | Var x, Var y | Const x, Const y -> String.equal x y
  | Var _, Const _ | Const _, Var _ -> false

let compare a b =
  match (a, b) with
  | Var x, Var y | Const x, Const y -> String.compare x y
  | Var _, Const _ -> -1
  | Const _, Var _ -> 1

let vars = function Var x -> [ x ] | Const _ -> []

let rename_var ~from ~into = function
  | Var x when String.equal x from -> Var into
  | (Var _ | Const _) as t -> t

let subst x u = function
  | Var y when String.equal y x -> u
  | (Var _ | Const _) as t -> t

let pp ppf = function Var x -> Format.pp_print_string ppf x | Const c -> Format.fprintf ppf "'%s" c
let to_string t = Format.asprintf "%a" pp t
