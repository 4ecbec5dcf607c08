module Structure = Fmtk_structure.Structure
module Formula = Fmtk_logic.Formula
module Eval = Fmtk_eval.Eval

let check_formula formula =
  match Formula.free_vars formula with
  | [ "x" ] | [] -> ()
  | fv ->
      invalid_arg
        (Printf.sprintf "Local_sentence: free variables must be [x], got [%s]"
           (String.concat "; " fv))

(* N_radius(a) ⊨ φ(a), with [w] walking the structure: O(ball) to build
   the neighborhood, then evaluation inside it. *)
let holds_at w ~radius ~formula a =
  ignore (Gaifman.walk w radius [ a ]);
  let nb = Gaifman.build_neighborhood w in
  let pinned = Structure.const nb "@p1" in
  Eval.holds nb formula ~env:(Eval.bind "x" pinned Eval.empty_env)

let holds_locally t ~radius ~formula a =
  check_formula formula;
  holds_at (Gaifman.walker t) ~radius ~formula a

type basic = { count : int; radius : int; formula : Formula.t }

let eval_basic t b =
  if b.count <= 0 then true
  else begin
    check_formula b.formula;
    let w = Gaifman.walker t in
    let candidates =
      List.filter
        (holds_at w ~radius:b.radius ~formula:b.formula)
        (Structure.domain t)
    in
    if List.length candidates < b.count then false
    else
      (* [near]: the pairs within distance 2r, one bounded walk per
         candidate. *)
      let r2 = if b.radius > max_int / 2 then max_int else 2 * b.radius in
      let near = Hashtbl.create 64 in
      List.iter
        (fun c ->
          for i = 1 to Gaifman.walk w r2 [ c ] - 1 do
            Hashtbl.replace near (c, Gaifman.member w i) ()
          done)
        candidates;
      let far a c = not (Hashtbl.mem near (a, c)) in
      let rec pick chosen = function
        | [] -> List.length chosen >= b.count
        | c :: rest ->
            if List.length chosen >= b.count then true
            else if List.for_all (fun a -> far a c) chosen then
              pick (c :: chosen) rest || pick chosen rest
            else pick chosen rest
      in
      pick [] candidates
  end

type combination =
  | Basic of basic
  | Neg of combination
  | Conj of combination * combination
  | Disj of combination * combination

let rec eval_combination t = function
  | Basic b -> eval_basic t b
  | Neg c -> not (eval_combination t c)
  | Conj (c, d) -> eval_combination t c && eval_combination t d
  | Disj (c, d) -> eval_combination t c || eval_combination t d
