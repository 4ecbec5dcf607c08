module Signature = Fmtk_logic.Signature

let set n = Structure.make Signature.empty ~size:n []

let linear_order n =
  let tuples = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      tuples := [| i; j |] :: !tuples
    done
  done;
  Structure.make Signature.order ~size:n [ ("lt", !tuples) ]

let successor n =
  let tuples = List.init (max 0 (n - 1)) (fun i -> [| i; i + 1 |]) in
  Structure.make Signature.graph ~size:n [ ("E", tuples) ]

let path = successor

let cycle n =
  if n < 1 then invalid_arg "Gen.cycle: need n >= 1";
  let tuples = List.init n (fun i -> [| i; (i + 1) mod n |]) in
  Structure.make Signature.graph ~size:n [ ("E", tuples) ]

let complete n =
  let tuples = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then tuples := [| i; j |] :: !tuples
    done
  done;
  Structure.make Signature.graph ~size:n [ ("E", !tuples) ]

let binary_tree depth =
  if depth < 0 then invalid_arg "Gen.binary_tree: negative depth";
  let size = (1 lsl (depth + 1)) - 1 in
  let tuples = ref [] in
  (* Heap numbering: children of i are 2i+1 and 2i+2. *)
  for i = 0 to size - 1 do
    if (2 * i) + 1 < size then tuples := [| i; (2 * i) + 1 |] :: !tuples;
    if (2 * i) + 2 < size then tuples := [| i; (2 * i) + 2 |] :: !tuples
  done;
  Structure.make Signature.graph ~size [ ("E", !tuples) ]

let grid w h =
  if w < 1 || h < 1 then invalid_arg "Gen.grid: need positive dimensions";
  let id x y = (y * w) + x in
  let tuples = ref [] in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      if x + 1 < w then tuples := [| id x y; id (x + 1) y |] :: !tuples;
      if y + 1 < h then tuples := [| id x y; id x (y + 1) |] :: !tuples
    done
  done;
  Structure.make Signature.graph ~size:(w * h) [ ("E", !tuples) ]

let union_of = function
  | [] -> invalid_arg "Gen.union_of: empty list"
  | g :: gs -> List.fold_left Structure.disjoint_union g gs

let random_graph ~rng n p =
  let tuples = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Random.State.float rng 1.0 < p then
        tuples := [| i; j |] :: !tuples
    done
  done;
  Structure.make Signature.graph ~size:n [ ("E", !tuples) ]

(* ---- Bounded-degree families sized for the million-element locality
   pipeline: all three build endpoint arrays and go through
   [Structure.of_graph], so no tuple set is ever materialized. ---- *)

let torus w h =
  if w < 1 || h < 1 then invalid_arg "Gen.torus: need positive dimensions";
  let n = w * h in
  let m = 4 * n in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let i = ref 0 in
  let edge u v =
    src.(!i) <- u;
    dst.(!i) <- v;
    incr i
  in
  let id x y = (y * w) + x in
  for y = 0 to h - 1 do
    for x = 0 to w - 1 do
      let u = id x y in
      let r = id ((x + 1) mod w) y and d = id x ((y + 1) mod h) in
      edge u r;
      edge r u;
      edge u d;
      edge d u
    done
  done;
  Structure.of_graph Signature.graph ~size:n [ ("E", (src, dst)) ]

let chorded_cycle n ~stride =
  if n < 1 then invalid_arg "Gen.chorded_cycle: need n >= 1";
  if stride < 1 || stride >= n then
    invalid_arg "Gen.chorded_cycle: need 1 <= stride < n";
  let m = 4 * n in
  let src = Array.make m 0 and dst = Array.make m 0 in
  let i = ref 0 in
  let edge u v =
    src.(!i) <- u;
    dst.(!i) <- v;
    incr i
  in
  for u = 0 to n - 1 do
    let s = (u + 1) mod n and c = (u + stride) mod n in
    edge u s;
    edge s u;
    edge u c;
    edge c u
  done;
  Structure.of_graph Signature.graph ~size:n [ ("E", (src, dst)) ]

exception Stalled

let draw_regular ~rng n d =
  if d < 0 || d >= max n 1 then
    invalid_arg "Gen.random_regular: need 0 <= d < n";
  if n * d mod 2 <> 0 then
    invalid_arg "Gen.random_regular: n * d must be even";
  (* Configuration model with 2-switch repair: pair up the n·d stubs
     uniformly, then repeatedly rewire self-loops and duplicate edges by
     swapping endpoints with a uniformly chosen pair. Produces an exact
     simple d-regular graph; for the sparse regimes benchmarks use
     (d << n) the repair loop touches a vanishing fraction of pairs. *)
  let m = n * d / 2 in
  let pu = Array.make (max m 1) 0 and pv = Array.make (max m 1) 0 in
  let stubs = Array.init (n * d) (fun i -> i / d) in
  for i = (n * d) - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = stubs.(i) in
    stubs.(i) <- stubs.(j);
    stubs.(j) <- tmp
  done;
  for i = 0 to m - 1 do
    pu.(i) <- stubs.(2 * i);
    pv.(i) <- stubs.((2 * i) + 1)
  done;
  let key u v = (min u v * n) + max u v in
  let seen = Hashtbl.create (2 * m) in
  (* [ok.(i)]: pair [i] is simple, distinct from every other ok pair,
     and its edge is recorded in [seen]. *)
  let ok = Array.make (max m 1) false in
  let bad = Queue.create () in
  for i = 0 to m - 1 do
    if pu.(i) <> pv.(i) && not (Hashtbl.mem seen (key pu.(i) pv.(i))) then begin
      ok.(i) <- true;
      Hashtbl.replace seen (key pu.(i) pv.(i)) ()
    end
    else Queue.add i bad
  done;
  let attempts = ref 0 in
  let cap = 200 * (m + 1) in
  while not (Queue.is_empty bad) do
    incr attempts;
    if !attempts > cap then raise_notrace Stalled;
    let i = Queue.pop bad in
    (* [i] may have been repaired as the partner of an earlier swap. *)
    if not ok.(i) then begin
      let j = Random.State.int rng m in
      let a = pu.(i) and b = pv.(i) and c = pu.(j) and e = pv.(j) in
      if
        j <> i && a <> c && b <> e
        && (not (Hashtbl.mem seen (key a c)))
        && (not (Hashtbl.mem seen (key b e)))
        && key a c <> key b e
      then begin
        (* Degree-preserving 2-switch: (a,b) + (c,e) -> (a,c) + (b,e). *)
        if ok.(j) then Hashtbl.remove seen (key c e);
        pv.(i) <- c;
        pu.(j) <- b;
        (* pv.(j) stays e *)
        Hashtbl.replace seen (key a c) ();
        Hashtbl.replace seen (key b e) ();
        ok.(i) <- true;
        ok.(j) <- true
      end
      else Queue.add i bad
    end
  done;
  let src = Array.make (2 * m) 0 and dst = Array.make (2 * m) 0 in
  for i = 0 to m - 1 do
    src.(2 * i) <- pu.(i);
    dst.(2 * i) <- pv.(i);
    src.((2 * i) + 1) <- pv.(i);
    dst.((2 * i) + 1) <- pu.(i)
  done;
  Structure.of_graph Signature.graph ~size:n [ ("E", (src, dst)) ]

(* Past half density a 2-switch rarely finds both new edges absent (near
   K_n, almost never): take the complement of an (n-1-d)-regular draw. A
   stalled repair (C4 can leave no legal switch) starts the pairing over
   from the same [rng], so converged draws are unchanged; at most half
   density a second pairing has always been enough (n <= 40, 200 seeds). *)
let rec random_regular ~rng n d =
  if 2 * d > n && d < n then begin
    let g = random_regular ~rng n (n - 1 - d) in
    let src = Array.make (n * d) 0 and dst = Array.make (n * d) 0 in
    let k = ref 0 in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v && not (Structure.mem g "E" [| u; v |]) then begin
          src.(!k) <- u;
          dst.(!k) <- v;
          incr k
        end
      done
    done;
    Structure.of_graph Signature.graph ~size:n [ ("E", (src, dst)) ]
  end
  else
    let rec draw tries =
      try draw_regular ~rng n d with Stalled when tries > 1 -> draw (tries - 1)
    in
    try draw 32
    with Stalled -> invalid_arg "Gen.random_regular: 32 pairings stalled"

let random_undirected_graph ~rng n p =
  let tuples = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.float rng 1.0 < p then
        tuples := [| i; j |] :: [| j; i |] :: !tuples
    done
  done;
  Structure.make Signature.graph ~size:n [ ("E", !tuples) ]

let random_structure ~rng sg n =
  let rels =
    List.map
      (fun (name, k) ->
        let tuples =
          Seq.filter (fun _ -> Random.State.bool rng) (Tuple.all n k)
        in
        (name, List.of_seq tuples))
      (Signature.rels sg)
  in
  let consts =
    List.map (fun c -> (c, Random.State.int rng (max 1 n))) (Signature.consts sg)
  in
  Structure.make sg ~size:n ~consts rels

(* Cai–Fürer–Immerman twisting over a cycle base. Each base vertex v of
   C_m becomes a fibre {a_v, b_v} (numbered 2v, 2v+1); each base edge
   carries the fibres either in parallel (a–a, b–b) or crossed (a–b,
   b–a). An even number of crossed edges is isomorphic to zero crossings
   (flip one fibre to uncross a pair), an odd number to exactly one — so
   there are two isomorphism classes: untwisted ≅ C_m ⊎ C_m and twisted
   ≅ C_2m. Both are 2-regular on the same vertex count, hence
   indistinguishable by colour refinement (1-WL, equivalently C^2), yet
   distinguished by 2-WL / C^3, which can count the vertices reachable
   along paths — the paper's "counting logics see more" separation made
   executable. *)
let cfi_pair m =
  if m < 3 then invalid_arg "Gen.cfi_pair: need m >= 3";
  let build ~twist =
    let tuples = ref [] in
    let add u v = tuples := [| u; v |] :: [| v; u |] :: !tuples in
    for v = 0 to m - 1 do
      let w = (v + 1) mod m in
      if twist && v = m - 1 then begin
        add (2 * v) ((2 * w) + 1);
        add ((2 * v) + 1) (2 * w)
      end
      else begin
        add (2 * v) (2 * w);
        add ((2 * v) + 1) ((2 * w) + 1)
      end
    done;
    Structure.make Signature.graph ~size:(2 * m) [ ("E", !tuples) ]
  in
  (build ~twist:false, build ~twist:true)

let bounded_degree_graph ~rng n d =
  if d < 0 then invalid_arg "Gen.bounded_degree_graph: negative bound";
  let deg = Array.make n 0 in
  let tuples = ref [] in
  (* Sample candidate pairs in random order; accept while degrees allow. *)
  let pairs = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      pairs := (i, j) :: !pairs
    done
  done;
  let arr = Array.of_list !pairs in
  (* Fisher–Yates shuffle. *)
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.iter
    (fun (i, j) ->
      if deg.(i) < d && deg.(j) < d && Random.State.bool rng then (
        deg.(i) <- deg.(i) + 1;
        deg.(j) <- deg.(j) + 1;
        tuples := [| i; j |] :: [| j; i |] :: !tuples))
    arr;
  Structure.make Signature.graph ~size:n [ ("E", !tuples) ]
