module Formula = Fmtk_logic.Formula
open Formula

let positive_in r f =
  (* polarity: true = positive context *)
  let rec go pol f =
    match f with
    | Rel (r', _) -> (not (String.equal r r')) || pol
    | Not g -> go (not pol) g
    | Implies (g, h) -> go (not pol) g && go pol h
    | Iff (g, h) -> go pol g && go (not pol) g && go pol h && go (not pol) h
    (* Occurrences of [r] under a binder that rebinds it don't count. *)
    | Ifp (r', _, _, _) | Exists_rel (r', _, _) | Forall_rel (r', _, _)
      when String.equal r r' ->
        true
    | _ -> List.for_all (go pol) (subformulas f)
  in
  go true f

let rec ifp_depth f =
  let sub = List.fold_left (fun m g -> max m (ifp_depth g)) 0 (subformulas f) in
  match f with Ifp _ -> 1 + sub | _ -> sub

(* ---- canonical definitions ---- *)

let tc_body =
  Or
    ( Rel ("E", [ v "x"; v "y" ]),
      Exists ("z", And (Rel ("T", [ v "x"; v "z" ]), Rel ("E", [ v "z"; v "y" ]))) )

let transitive_closure = Ifp ("T", [ "x"; "y" ], tc_body, [ v "u"; v "v" ])

let connectivity =
  (* Symmetric reachability: u reaches v following edges in either
     direction; connected iff total. *)
  let step a b =
    Or (Rel ("E", [ v a; v b ]), Rel ("E", [ v b; v a ]))
  in
  let body =
    Or
      ( Or (Eq (v "x", v "y"), step "x" "y"),
        Exists ("z", And (Rel ("R", [ v "x"; v "z" ]), step "z" "y")) )
  in
  Forall
    ("u", Forall ("v", Ifp ("R", [ "x"; "y" ], body, [ v "u"; v "v" ])))

let even_on_orders =
  (* odd(x): x is at an odd position of the order — the first element, or
     two successor steps above an odd position. succ is definable from lt.
     Size is even iff the last element is not at an odd position. *)
  let lt a b = Rel ("lt", [ v a; v b ]) in
  let succ a b z = And (lt a b, Not (Exists (z, And (lt a z, lt z b)))) in
  let first a z = Not (Exists (z, lt z a)) in
  let last a z = Not (Exists (z, lt a z)) in
  let odd_body =
    Or
      ( first "x" "w1",
        Exists
          ( "y",
            And
              ( Rel ("O", [ v "y" ]),
                Exists ("m", And (succ "y" "m" "w2", succ "m" "x" "w3")) ) ) )
  in
  Forall
    ( "l",
      Implies
        (last "l" "w4", Not (Ifp ("O", [ "x" ], odd_body, [ v "l" ]))) )
