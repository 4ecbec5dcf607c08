(* The benchmark's own model of a directed graph, used to compute the
   expected answer of every query independently of fmtk's evaluators:
   closed-form counts over adjacency sets, maintained incrementally as
   the client streams updates. A linear order [lt] is the transitive
   tournament, so the same model covers both signatures. *)

type t = {
  n : int;
  out_ : (int, unit) Hashtbl.t array;
  in_ : (int, unit) Hashtbl.t array;
  mutable edges : int;
  mutable mutual : int; (* ordered pairs (x,y) with both x->y and y->x *)
  mdeg : int array; (* per vertex: number of mutual neighbours *)
  mutable with_mutual : int; (* vertices with mdeg > 0 *)
  mutable sinks : int; (* vertices with out-degree 0 *)
  mutable paths2 : int; (* sum over y of indeg(y) * outdeg(y) *)
  mutable triangles : int; (* ordered (x,y,z) with x->y->z->x *)
}

let mem g u v = Hashtbl.mem g.out_.(u) v
let outdeg g u = Hashtbl.length g.out_.(u)
let indeg g u = Hashtbl.length g.in_.(u)

(* Directed 3-cycles through the edge u->v: z with v->z and z->u. *)
let closing g u v =
  Hashtbl.fold (fun z () acc -> if mem g z u then acc + 1 else acc) g.out_.(v) 0

let set_mdeg g u d =
  if g.mdeg.(u) = 0 && d > 0 then g.with_mutual <- g.with_mutual + 1
  else if g.mdeg.(u) > 0 && d = 0 then g.with_mutual <- g.with_mutual - 1;
  g.mdeg.(u) <- d

let insert g u v =
  if u = v || mem g u v then invalid_arg "Model.insert";
  g.triangles <- g.triangles + (3 * closing g u v);
  g.paths2 <- g.paths2 + indeg g u + outdeg g v;
  if outdeg g u = 0 then g.sinks <- g.sinks - 1;
  Hashtbl.replace g.out_.(u) v ();
  Hashtbl.replace g.in_.(v) u ();
  g.edges <- g.edges + 1;
  if mem g v u then begin
    g.mutual <- g.mutual + 2;
    set_mdeg g u (g.mdeg.(u) + 1);
    set_mdeg g v (g.mdeg.(v) + 1)
  end

let delete g u v =
  if not (mem g u v) then invalid_arg "Model.delete";
  Hashtbl.remove g.out_.(u) v;
  Hashtbl.remove g.in_.(v) u;
  g.edges <- g.edges - 1;
  if outdeg g u = 0 then g.sinks <- g.sinks + 1;
  g.paths2 <- g.paths2 - indeg g u - outdeg g v;
  g.triangles <- g.triangles - (3 * closing g u v);
  if mem g v u then begin
    g.mutual <- g.mutual - 2;
    set_mdeg g u (g.mdeg.(u) - 1);
    set_mdeg g v (g.mdeg.(v) - 1)
  end

let empty n =
  {
    n;
    out_ = Array.init n (fun _ -> Hashtbl.create 8);
    in_ = Array.init n (fun _ -> Hashtbl.create 8);
    edges = 0;
    mutual = 0;
    mdeg = Array.make n 0;
    with_mutual = 0;
    sinks = n;
    paths2 = 0;
    triangles = 0;
  }

let of_structure s rel =
  let g = empty (Fmtk_structure.Structure.size s) in
  Fmtk_structure.Structure.iter_rel2 s rel (fun u v -> insert g u v);
  g

(* Whether [g], drawn with edge probability [p] for each ordered pair,
   is typical of its size: an edge count and a 2-path count (what a
   2-step join costs) within 2% and 4% of their expectations n(n-1)p and
   n((n-1)p)^2. The benchmark draws random inputs until one is typical,
   so that one seed's inputs cost what another's do. *)
let typical g p =
  let d = float_of_int (g.n - 1) *. p in
  let near x e tol = Float.abs (float_of_int x -. e) <= tol *. e in
  near g.edges (float_of_int g.n *. d) 0.02
  && near g.paths2 (float_of_int g.n *. d *. d) 0.04

(* Ordered pairs (x,y) joined by a 2-step path x->z->y. *)
let reach2 g =
  let seen = Array.make g.n (-1) and total = ref 0 in
  for x = 0 to g.n - 1 do
    Hashtbl.iter
      (fun z () ->
        Hashtbl.iter
          (fun y () ->
            if seen.(y) <> x then begin
              seen.(y) <- x;
              incr total
            end)
          g.out_.(z))
      g.out_.(x)
  done;
  !total

(* A uniformly drawn absent edge u->v, u <> v. *)
let rec absent_edge g rng =
  let u = Random.State.int rng g.n and v = Random.State.int rng g.n in
  if u = v || mem g u v then absent_edge g rng else (u, v)
