module Formula = Fmtk_logic.Formula
module Term = Fmtk_logic.Term
module Signature = Fmtk_logic.Signature
module Structure = Fmtk_structure.Structure

type compiled = {
  size : int;
  circuit : Circuit.t;
  output : Circuit.node;
  signature : Signature.t;
}

let atom_input rname tup =
  Printf.sprintf "%s:%s" rname
    (String.concat "," (List.map string_of_int (Array.to_list tup)))

let compile sg ~size phi =
  if not (Formula.is_sentence phi) then
    invalid_arg "Fo_circuit.compile: not a sentence";
  (match Formula.check sg phi with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Fo_circuit.compile: " ^ msg));
  if Signature.consts sg <> [] then
    invalid_arg "Fo_circuit.compile: constants not supported";
  let c = Circuit.create () in
  let lookup env x =
    match List.assoc_opt x env with
    | Some e -> e
    | None -> invalid_arg (Printf.sprintf "Fo_circuit: unbound variable %S" x)
  in
  let term_value env = function
    | Term.Var x -> lookup env x
    | Term.Const _ -> assert false (* excluded above *)
  in
  let rec go env f =
    match f with
    | Formula.True -> Circuit.const c true
    | Formula.False -> Circuit.const c false
    | Formula.Eq (t, u) ->
        Circuit.const c (term_value env t = term_value env u)
    | Formula.Rel (r, ts) ->
        let tup = Array.of_list (List.map (term_value env) ts) in
        Circuit.input c (atom_input r tup)
    | Formula.Not g -> Circuit.not_ c (go env g)
    | Formula.And (g, h) -> Circuit.and_ c [ go env g; go env h ]
    | Formula.Or (g, h) -> Circuit.or_ c [ go env g; go env h ]
    | Formula.Implies (g, h) ->
        Circuit.or_ c [ Circuit.not_ c (go env g); go env h ]
    | Formula.Iff (g, h) ->
        let a = go env g and b = go env h in
        Circuit.or_ c
          [
            Circuit.and_ c [ a; b ];
            Circuit.and_ c [ Circuit.not_ c a; Circuit.not_ c b ];
          ]
    | Formula.Exists (x, g) ->
        Circuit.or_ c (List.init size (fun e -> go ((x, e) :: env) g))
    | Formula.Forall (x, g) ->
        Circuit.and_ c (List.init size (fun e -> go ((x, e) :: env) g))
    | _ ->
        invalid_arg
          ("Fo_circuit.compile: not first-order: " ^ Formula.to_string f)
  in
  let output = go [] phi in
  { size; circuit = c; output; signature = sg }

let run compiled s =
  if Structure.size s <> compiled.size then
    invalid_arg
      (Printf.sprintf "Fo_circuit.run: structure size %d, circuit size %d"
         (Structure.size s) compiled.size);
  let env name =
    match String.index_opt name ':' with
    | None -> raise Not_found
    | Some i ->
        let rname = String.sub name 0 i in
        let rest = String.sub name (i + 1) (String.length name - i - 1) in
        let tup =
          if rest = "" then [||]
          else
            String.split_on_char ',' rest
            |> List.map int_of_string
            |> Array.of_list
        in
        Structure.mem s rname tup
  in
  Circuit.eval compiled.circuit ~output:compiled.output env

let circuit_size compiled = Circuit.size compiled.circuit ~output:compiled.output
let circuit_depth compiled = Circuit.depth compiled.circuit ~output:compiled.output

let input_count compiled =
  List.length (Circuit.inputs compiled.circuit ~output:compiled.output)
