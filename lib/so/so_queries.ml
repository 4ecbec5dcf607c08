module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
open Fmtk_logic.Formula

(* Order vocabulary over lt. *)
let lt x y = Rel ("lt", [ v x; v y ])
let succ x y z = And (lt x y, Not (Exists (z, And (lt x z, lt z y))))
let first x w = Not (Exists (w, lt w x))
let last x w = Not (Exists (w, lt x w))

let even_on_orders =
  (* X holds of positions 1, 3, 5, … — even length iff the last position
     is not in X. *)
  Exists_set
    ( "X",
      conj
        [
          Forall ("x", Implies (first "x" "w1", Mem (v "x", "X")));
          Forall
            ( "x",
              Forall
                ( "y",
                  Implies
                    ( succ "x" "y" "w2",
                      Iff (Mem (v "x", "X"), Not (Mem (v "y", "X"))) ) ) );
          Forall ("x", Implies (last "x" "w3", Not (Mem (v "x", "X"))));
        ] )

let adjacent x y = Or (Rel ("E", [ v x; v y ]), Rel ("E", [ v y; v x ]))

let connectivity =
  Forall_set
    ( "X",
      Implies
        ( And
            ( Exists ("x", Mem (v "x", "X")),
              Forall
                ( "x",
                  Forall
                    ( "y",
                      Implies
                        ( And (Mem (v "x", "X"), adjacent "x" "y"),
                          Mem (v "y", "X") ) ) ) ),
          Forall ("y", Mem (v "y", "X")) ) )

let three_colorable =
  let in_ c x = Mem (v x, c) in
  Exists_set
    ( "R",
      Exists_set
        ( "G",
          Exists_set
            ( "B",
              conj
                [
                  Forall
                    ( "x",
                      conj
                        [
                          Or (in_ "R" "x", Or (in_ "G" "x", in_ "B" "x"));
                          Not (And (in_ "R" "x", in_ "G" "x"));
                          Not (And (in_ "R" "x", in_ "B" "x"));
                          Not (And (in_ "G" "x", in_ "B" "x"));
                        ] );
                  Forall
                    ( "x",
                      Forall
                        ( "y",
                          Implies
                            ( And (adjacent "x" "y", Not (Eq (v "x", v "y"))),
                              conj
                                [
                                  Not (And (in_ "R" "x", in_ "R" "y"));
                                  Not (And (in_ "G" "x", in_ "G" "y"));
                                  Not (And (in_ "B" "x", in_ "B" "y"));
                                ] ) ) );
                ] ) ) )

let three_colorable_direct s =
  let n = Structure.size s in
  let edges =
    Tuple.Set.fold
      (fun t acc -> if t.(0) <> t.(1) then (t.(0), t.(1)) :: acc else acc)
      (Structure.rel s "E") []
  in
  let color = Array.make n 0 in
  let ok v =
    List.for_all
      (fun (a, b) -> a > v || b > v || color.(a) <> color.(b))
      edges
  in
  let rec assign i =
    if i = n then true
    else
      List.exists
        (fun c ->
          color.(i) <- c;
          ok i && assign (i + 1))
        [ 0; 1; 2 ]
  in
  assign 0

(* Strict linear order axioms for a quantified binary L, plus
   "L-consecutive implies edge". *)
let hamiltonian_path =
  let l x y = Rel ("L", [ v x; v y ]) in
  Exists_rel
    ( "L",
      2,
      conj
        [
          (* irreflexive *)
          Forall ("x", Not (l "x" "x"));
          (* transitive *)
          Forall
            ( "x",
              Forall
                ( "y",
                  Forall
                    ("z", Implies (And (l "x" "y", l "y" "z"), l "x" "z")) ) );
          (* total *)
          Forall
            ( "x",
              Forall
                ( "y",
                  Or (Eq (v "x", v "y"), Or (l "x" "y", l "y" "x")) ) );
          (* consecutive pairs are edges *)
          Forall
            ( "x",
              Forall
                ( "y",
                  Implies
                    ( And
                        ( l "x" "y",
                          Not (Exists ("z", And (l "x" "z", l "z" "y"))) ),
                      Rel ("E", [ v "x"; v "y" ]) ) ) );
        ] )

let hamiltonian_path_direct s =
  let n = Structure.size s in
  if n <= 1 then true
  else
    let used = Array.make n false in
    let rec extend current remaining =
      if remaining = 0 then true
      else
        let rec try_next v =
          v < n
          && ((not used.(v))
              && Structure.mem s "E" [| current; v |]
              && (used.(v) <- true;
                  if extend v (remaining - 1) then true
                  else (
                    used.(v) <- false;
                    false))
             || try_next (v + 1))
        in
        try_next 0
    in
    let rec try_start u =
      u < n
      && ((used.(u) <- true;
           if extend u (n - 1) then true
           else (
             used.(u) <- false;
             false))
         || try_start (u + 1))
    in
    try_start 0
