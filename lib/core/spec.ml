module Structure = Fmtk_structure.Structure
module Gen = Fmtk_structure.Gen
module Structure_io = Fmtk_structure.Structure_io
module Paley = Fmtk_zeroone.Paley

type generator = {
  elements : int;
  tuples : int;
  build : unit -> (Structure.t, string) result;
}

(* Generators validate their arguments with [Invalid_argument]; a total
   surface must catch those too (negative sizes, non-prime Paley
   orders, ...). *)
let total spec f =
  match f () with
  | r -> r
  | exception (Invalid_argument m | Failure m) ->
      Error (Printf.sprintf "bad structure spec %S: %s" spec m)

(* Sizes come from client input: saturate rather than wrap, and count a
   negative argument (refused by the generator) as zero. *)
let ( *| ) a b =
  let a = max 0 a and b = max 0 b in
  if a <> 0 && b > max_int / a then max_int else a * b

(* [None] when [spec] does not name a generator. *)
let generator_opt spec =
  let num name s k =
    match int_of_string_opt s with
    | Some n -> k n
    | None ->
        Some (Error (Printf.sprintf "%s spec needs an integer, got %S" name s))
  in
  let dims name d k =
    match String.split_on_char 'x' d with
    | [ w; h ] -> num name w (fun w -> num name h (fun h -> k w h))
    | _ -> Some (Error (Printf.sprintf "%s spec is %s:WxH" name name))
  in
  let gen elements tuples f =
    let build () = total spec (fun () -> Ok (f ())) in
    Some (Ok { elements; tuples; build })
  in
  match String.split_on_char ':' spec with
  | [ "set"; n ] -> num "set" n (fun n -> gen n 0 (fun () -> Gen.set n))
  | [ "order"; n ] ->
      num "order" n (fun n ->
          gen n (n *| (n - 1) / 2) (fun () -> Gen.linear_order n))
  | [ "chain"; n ] | [ "successor"; n ] ->
      num "chain" n (fun n -> gen n (n - 1) (fun () -> Gen.successor n))
  | [ "cycle"; n ] -> num "cycle" n (fun n -> gen n n (fun () -> Gen.cycle n))
  | [ "complete"; n ] ->
      num "complete" n (fun n ->
          gen n (n *| (n - 1)) (fun () -> Gen.complete n))
  | [ "tree"; d ] ->
      num "tree" d (fun d ->
          let nodes =
            if d < 0 then 0 else if d > 60 then max_int else (1 lsl (d + 1)) - 1
          in
          gen nodes (nodes - 1) (fun () -> Gen.binary_tree d))
  | [ "paley"; q ] ->
      num "paley" q (fun q ->
          gen q (q *| (q - 1) / 2) (fun () -> Paley.graph q))
  | [ "cfi"; m ] ->
      num "cfi" m (fun m ->
          gen (2 *| m) (4 *| m) (fun () -> fst (Gen.cfi_pair m)))
  | [ "cfi-twisted"; m ] ->
      num "cfi-twisted" m (fun m ->
          gen (2 *| m) (4 *| m) (fun () -> snd (Gen.cfi_pair m)))
  | [ "grid"; d ] ->
      dims "grid" d (fun w h ->
          gen (w *| h) (2 *| (w *| h)) (fun () -> Gen.grid w h))
  | [ "torus"; d ] ->
      dims "torus" d (fun w h ->
          gen (w *| h) (4 *| (w *| h)) (fun () -> Gen.torus w h))
  | [ "chorded"; n; stride ] ->
      num "chorded" n (fun n ->
          num "chorded" stride (fun stride ->
              gen n (4 *| n) (fun () -> Gen.chorded_cycle n ~stride)))
  | [ "regular"; n; d; seed ] ->
      num "regular" n (fun n ->
          num "regular" d (fun d ->
              num "regular" seed (fun seed ->
                  gen n (n *| d) (fun () ->
                      let rng = Random.State.make [| seed |] in
                      Gen.random_regular ~rng n d))))
  | [ "random"; n; p; seed ] -> (
      match (int_of_string_opt n, float_of_string_opt p, int_of_string_opt seed)
      with
      | Some n, Some p, Some seed ->
          gen n (n *| (n - 1)) (fun () ->
              Gen.random_graph ~rng:(Random.State.make [| seed |]) n p)
      | _ -> Some (Error "random spec is random:SIZE:EDGE_PROB:SEED"))
  | _ -> None

let generator spec =
  match generator_opt spec with
  | Some r -> r
  | None -> Error (Printf.sprintf "unknown structure generator %S" spec)

let parse spec =
  match generator_opt spec with
  | Some r -> Result.bind r (fun g -> g.build ())
  | None -> total spec (fun () -> Structure_io.load spec)

let parse_exn spec =
  match parse spec with Ok s -> s | Error e -> invalid_arg e
