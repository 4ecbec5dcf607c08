module Eval = Fmtk_eval.Eval
open Fmtk_logic.Formula

let bool_alphabet = [ "and"; "or"; "0"; "1" ]

let label a x = Rel ("L_" ^ a, [ v x ])
let left p c = Rel ("left", [ v p; v c ])
let right p c = Rel ("right", [ v p; v c ])
let in_x x = Mem (v x, "X")

let root x =
  Not (Exists ("p", Or (left "p" x, right "p" x)))

let boolean_eval_sentence =
  (* X = the set of nodes evaluating to true. *)
  let gate glabel combine =
    Forall
      ( "n",
        Forall
          ( "l",
            Forall
              ( "r",
                Implies
                  ( conj [ label glabel "n"; left "n" "l"; right "n" "r" ],
                    Iff (in_x "n", combine (in_x "l") (in_x "r")) ) ) ) )
  in
  Exists_set
    ( "X",
      conj
        [
          Forall ("n", Implies (label "1" "n", in_x "n"));
          Forall ("n", Implies (label "0" "n", Not (in_x "n")));
          gate "and" (fun a b -> And (a, b));
          gate "or" (fun a b -> Or (a, b));
          Forall ("n", Implies (root "n", in_x "n"));
        ] )

let eval_via_mso t =
  Eval.sat (Tree.to_structure ~alphabet:bool_alphabet t) boolean_eval_sentence

let eval_via_automaton t = Automaton.accepts Automaton.boolean_eval t

let even_ones_sentence =
  (* X = nodes whose subtree contains an odd number of 1-leaves; a leaf is
     a node without a left child. *)
  let leaf x = Not (Exists ("c", left x "c")) in
  Exists_set
    ( "X",
      conj
        [
          Forall
            ("n", Implies (leaf "n", Iff (in_x "n", label "1" "n")));
          Forall
            ( "n",
              Forall
                ( "l",
                  Forall
                    ( "r",
                      Implies
                        ( And (left "n" "l", right "n" "r"),
                          Iff
                            ( in_x "n",
                              Iff (in_x "l", Not (in_x "r")) ) ) ) ) );
          Forall ("n", Implies (root "n", Not (in_x "n")));
        ] )

let even_ones_via_mso t =
  Eval.sat (Tree.to_structure ~alphabet:bool_alphabet t) even_ones_sentence

let rec eval_direct = function
  | Tree.Leaf "1" -> true
  | Tree.Leaf "0" -> false
  | Tree.Leaf l -> invalid_arg (Printf.sprintf "eval_direct: bad leaf %S" l)
  | Tree.Node ("and", l, r) -> eval_direct l && eval_direct r
  | Tree.Node ("or", l, r) -> eval_direct l || eval_direct r
  | Tree.Node (l, _, _) -> invalid_arg (Printf.sprintf "eval_direct: bad node %S" l)
