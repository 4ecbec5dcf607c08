module Structure = Fmtk_structure.Structure
module Signature = Fmtk_logic.Signature
module Index = Fmtk_structure.Index
module Csr = Fmtk_structure.Csr

let adjacency_csr t = Structure.gaifman_csr t

(* ---- The walker ----

   One scratch-buffer BFS over the cached CSR Gaifman adjacency: one
   size-n array of local ids, reset only on the entries the previous
   ball touched; a ball buffer doubling as the BFS queue, with each
   member's distance stored beside it by ball position; and
   per-relation views for [build_neighborhood] and [serialize]. A newly
   discovered vertex costs one scattered write (its local id). Every
   ball and neighborhood in the locality modules comes from here, so a
   loop over elements pays O(ball) per element after one O(n + m)
   setup. *)

(* How [build_neighborhood] reads one relation: nullary relations are a
   flag, unary ones a membership index, binary ones forward CSR rows,
   and wider ones their tuples keyed by first element (each tuple is
   then met exactly once per ball, at its first element). *)
type view =
  | Nullary of bool
  | Unary of Index.t
  | Binary of Csr.t
  | Wide of int array list array

type walker = {
  size : int;
  g : Csr.t;
  rel_sg : Signature.t;  (* the signature without its constants *)
  consts : (string * int) list;
  views : (string * view) list;  (* signature order *)
  serializable : bool;
  unary : Index.t array;  (* arity-1 indexes, signature order *)
  binary : Csr.t array;  (* arity-2 rows, signature order *)
  local : int array;  (* BFS-order local id, -1 outside *)
  mutable ball : int array;  (* members by local id *)
  mutable bdist : int array;  (* distances by local id *)
  mutable len : int;
  mutable seeds : int list;
  mutable key : int array;  (* [serialize]'s output *)
}

let walker t =
  let n = Structure.size t in
  let sg = Structure.signature t in
  let rels = Signature.rels sg in
  let views =
    List.map
      (fun (name, k) ->
        let view =
          match k with
          | 0 -> Nullary (Structure.rel_count t name > 0)
          | 1 -> Unary (Structure.index t name)
          | 2 ->
              Binary
                (match Structure.csr_of_rel t name with
                | Some c -> c
                | None -> Csr.of_tuple_set ~n (Structure.rel t name))
          | _ ->
              let by_first = Array.make n [] in
              Structure.iter_rel t name (fun tup ->
                  by_first.(tup.(0)) <- tup :: by_first.(tup.(0)));
              Wide by_first
        in
        (name, view))
      rels
  in
  let unary =
    Array.of_list (List.filter_map (function _, Unary i -> Some i | _ -> None) views)
  in
  let binary =
    Array.of_list (List.filter_map (function _, Binary c -> Some c | _ -> None) views)
  in
  let consts = List.map (fun c -> (c, Structure.const t c)) (Signature.consts sg) in
  {
    size = n;
    g = Structure.gaifman_csr t;
    rel_sg = Signature.make rels;
    consts;
    views;
    (* The serialization keeps one unary mask per member in an OCaml
       int, and describes nothing but unary and binary relations. *)
    serializable =
      consts = []
      && List.for_all (fun (_, k) -> k = 1 || k = 2) rels
      && Array.length unary <= 62;
    unary;
    binary;
    local = Array.make n (-1);
    ball = Array.make 16 0;
    bdist = Array.make 16 0;
    len = 0;
    seeds = [];
    key = Array.make 64 0;
  }

let check_element w e =
  if e < 0 || e >= w.size then
    invalid_arg
      (Printf.sprintf "Gaifman: element %d outside the domain [0,%d)" e w.size)

let grow arr len =
  let grown = Array.make (2 * Array.length arr) 0 in
  Array.blit arr 0 grown 0 len;
  grown

let push_ball w u d =
  if w.len = Array.length w.ball then begin
    w.ball <- grow w.ball w.len;
    w.bdist <- grow w.bdist w.len
  end;
  w.ball.(w.len) <- u;
  w.bdist.(w.len) <- d;
  w.local.(u) <- w.len;
  w.len <- w.len + 1

(* The census walks once per element, so [walk] and [serialize]
   allocate nothing per ball member: plain recursion, and index loops
   over [Csr.targets] rather than a closure per [Csr.iter_row]. *)
let rec push_seeds w = function
  | [] -> ()
  | s :: rest ->
      check_element w s;
      if w.local.(s) < 0 then push_ball w s 0;
      push_seeds w rest

let walk w r seeds =
  if r < 0 then invalid_arg (Printf.sprintf "Gaifman: negative radius %d" r);
  for i = 0 to w.len - 1 do
    w.local.(w.ball.(i)) <- -1
  done;
  w.len <- 0;
  push_seeds w seeds;
  w.seeds <- seeds;
  let targets = Csr.targets w.g in
  let head = ref 0 in
  while !head < w.len do
    let u = w.ball.(!head) and du = w.bdist.(!head) in
    incr head;
    if du < r then
      for k = Csr.row_start w.g u to Csr.row_end w.g u - 1 do
        let v = targets.(k) in
        if w.local.(v) < 0 then push_ball w v (du + 1)
      done
  done;
  w.len

let member w i =
  if i < 0 || i >= w.len then invalid_arg "Gaifman.member: no such ball member";
  w.ball.(i)

(* ---- Neighborhoods ---- *)

let build_neighborhood w =
  let in_ball e = w.local.(e) >= 0 in
  let rels =
    List.map
      (fun (name, view) ->
        let acc = ref [] in
        (match view with
        | Nullary holds -> if holds then acc := [ [||] ]
        | Unary idx ->
            for i = w.len - 1 downto 0 do
              if Index.mem1 idx w.ball.(i) then acc := [| i |] :: !acc
            done
        | Binary csr ->
            for i = w.len - 1 downto 0 do
              Csr.iter_row csr w.ball.(i) (fun v ->
                  let lv = w.local.(v) in
                  if lv >= 0 then acc := [| i; lv |] :: !acc)
            done
        | Wide by_first ->
            for i = w.len - 1 downto 0 do
              List.iter
                (fun tup ->
                  if Array.for_all in_ball tup then
                    acc := Array.map (fun e -> w.local.(e)) tup :: !acc)
                by_first.(w.ball.(i))
            done);
        (name, !acc))
      w.views
  in
  (* Constants interpreted outside the ball leave the signature, as in
     [Structure.induced]. *)
  let consts =
    List.filter_map
      (fun (c, e) -> if in_ball e then Some (c, w.local.(e)) else None)
      w.consts
  in
  let sg =
    if consts = [] then w.rel_sg
    else Signature.make ~consts:(List.map fst consts) (Signature.rels w.rel_sg)
  in
  let pins =
    List.mapi (fun i e -> (Printf.sprintf "@p%d" (i + 1), w.local.(e))) w.seeds
  in
  Structure.expand_consts (Structure.make sg ~size:w.len ~consts rels) pins

(* ---- The serializer ---- *)

let serializable w = w.serializable

let push_key w len v =
  if len = Array.length w.key then w.key <- grow w.key len;
  w.key.(len) <- v

(* Size, then per member (in BFS order) its unary mask followed by, per
   binary relation, the member's in-ball out-targets as sorted local
   ids, [-1]-terminated. Equal serializations of two single-seed balls
   => the local-id bijection is an isomorphism of their neighborhoods
   pinning the seed (local id 0): unary memberships and every
   relation's exact directed edge set (self-loops included; in-edges
   appear in the source member's section) coincide. One CSR row read
   per member per relation — no per-pair probes. Written into [w.key],
   so a cache probe reads the ball's key where it was built. *)
let serialize w =
  if not w.serializable then
    invalid_arg "Gaifman.serialize: signature not serializable";
  (match w.seeds with
  | [ _ ] -> ()
  | _ -> invalid_arg "Gaifman.serialize: ball not walked from one element");
  push_key w 0 w.len;
  let len = ref 1 in
  for i = 0 to w.len - 1 do
    let u = w.ball.(i) in
    let umask = ref 0 in
    for j = 0 to Array.length w.unary - 1 do
      if Index.mem1 w.unary.(j) u then umask := !umask lor (1 lsl j)
    done;
    push_key w !len !umask;
    incr len;
    for b = 0 to Array.length w.binary - 1 do
      let csr = w.binary.(b) in
      let targets = Csr.targets csr in
      let row = !len in
      for k = Csr.row_start csr u to Csr.row_end csr u - 1 do
        let lv = w.local.(targets.(k)) in
        if lv >= 0 then begin
          push_key w !len lv;
          incr len
        end
      done;
      Csr.sort_slice w.key row !len;
      push_key w !len (-1);
      incr len
    done
  done;
  !len

let serialized w = w.key

(* ---- One-shot views ---- *)

let ball t r tuple =
  let w = walker t in
  let len = walk w r tuple in
  List.sort Int.compare (List.init len (fun i -> w.ball.(i)))

let neighborhood t r tuple =
  let w = walker t in
  ignore (walk w r tuple);
  build_neighborhood w

let distance t u v =
  let w = walker t in
  check_element w v;
  ignore (walk w max_int [ u ]);
  let lv = w.local.(v) in
  if lv < 0 then max_int else w.bdist.(lv)

let diameter t =
  let w = walker t in
  let best = ref 0 in
  for u = 0 to w.size - 1 do
    let len = walk w max_int [ u ] in
    (* BFS order: the last member is a farthest one. *)
    best := max !best w.bdist.(len - 1)
  done;
  !best

let degree t = Csr.max_degree (adjacency_csr t)
