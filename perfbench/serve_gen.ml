(* Request streams for the two serve workloads, generated from the seed,
   each request paired with the answer the benchmark expects (computed on
   {!Model}, never by fmtk's own evaluators).

   serve_read: read-only [eval] traffic. Keys are (structure, formula
   text) pairs, 8 structures x 5 templates x 52 variable renamings =
   2080 keys, about 4x the server's 512-entry cache tiers, drawn
   Zipf(1). A renaming keeps a key's cost while making it a distinct
   cache entry. Popularity rank k maps to template k mod 5, structure
   (k / 5) mod 8 and renaming k / 40, so every popularity level has the
   same 3:2 mix of compiled and [ra:true] templates and the cost profile
   does not depend on the seed; the seed picks the random graphs (among
   those typical of their size, see [typical_random]) and the draws.

   serve_write: each connection owns a small graph (below
   [Structure.csr_auto_threshold], stored as a tuple set) and a large
   one (above it, stored as CSR), so the order of updates per structure
   is deterministic. About half the requests are single-edge [update]s
   that insert absent edges and delete them again [pending] updates
   later (sizes stay stationary); the rest are evaluations of a hot set
   of 16 maintained join queries and compiled queries (it fits the
   cache), plus an occasional [load]/[drop] of a scratch structure. *)

module Json = Fmtk_server.Json
module Structure = Fmtk_structure.Structure

(* Updates are told apart by the backend of the structure they hit, so
   that no median falls in the gap between the two update costs. *)
type op = Eval | Eval_ra | Update_set | Update_csr | Load | Drop

let ops = [ Eval; Eval_ra; Update_set; Update_csr; Load; Drop ]

let op_name = function
  | Eval -> "eval"
  | Eval_ra -> "eval_ra"
  | Update_set -> "update_set"
  | Update_csr -> "update_csr"
  | Load -> "load"
  | Drop -> "drop"

let is_write = function
  | Update_set | Update_csr | Load | Drop -> true
  | Eval | Eval_ra -> false

(* [check] receives the [result] object of an ok response and raises
   {!Util.Wrong} when it disagrees with the expectation. *)
type request = { line : string; op : op; check : Json.t -> unit }

(* ---- formula templates ---- *)

type expect = Value of bool | Count of int

type template = {
  ra : bool;
  shape : string; (* over relation R and variables x, y, z *)
  expect : Model.t -> expect;
}

let t_total = { ra = false; shape = "forall x. exists y. R(x,y)";
                expect = (fun g -> Value (g.Model.sinks = 0)) }

let t_irreflexive = { ra = false; shape = "forall x. forall y. (R(x,y) -> !(x = y))";
                      expect = (fun _ -> Value true) }

let t_has_mutual = { ra = false; shape = "exists y. (R(x,y) & R(y,x))";
                     expect = (fun g -> Count g.Model.with_mutual) }

let t_mutual = { ra = true; shape = "R(x,y) & R(y,x)";
                 expect = (fun g -> Count g.Model.mutual) }

let t_path2 = { ra = true; shape = "R(x,y) & R(y,z)";
                expect = (fun g -> Count g.Model.paths2) }

let t_triangle = { ra = true; shape = "R(x,y) & R(y,z) & R(z,x)";
                   expect = (fun g -> Count g.Model.triangles) }

(* Instantiate a template: the relation name for R, and the variables
   x, y, z renamed apart by the suffix [k] (renaming 0 keeps the plain
   names). Works on whole identifiers, so keywords are left alone. *)
let text t ~rel k =
  let b = Buffer.create 64 and s = t.shape in
  let n = String.length s in
  let is_id c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') in
  let rec go i =
    if i < n then
      if is_id s.[i] then begin
        let j = ref i in
        while !j < n && is_id s.[!j] do incr j done;
        (match String.sub s i (!j - i) with
        | "R" -> Buffer.add_string b rel
        | ("x" | "y" | "z") as v when k > 0 -> Buffer.add_string b (v ^ string_of_int k)
        | w -> Buffer.add_string b w);
        go !j
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* ---- request lines and checks ---- *)

let line fields = Json.to_string (Json.Obj fields)

let int_field name result =
  match Json.member name result with Some v -> Json.get_int v | None -> None

let check_expect ~what expected result =
  match expected with
  | Value b -> (
      match Option.bind (Json.member "value" result) Json.get_bool with
      | Some b' when b' = b -> ()
      | got ->
          Util.wrong "%s: expected value %b, got %s" what b
            (match got with Some b' -> string_of_bool b' | None -> "none"))
  | Count c -> (
      match int_field "count" result with
      | Some c' when c' = c -> ()
      | got ->
          Util.wrong "%s: expected count %d, got %s" what c
            (match got with Some c' -> string_of_int c' | None -> "none"))

let eval_request ~id ~structure ~formula ~ra expected =
  {
    line =
      line
        ([ ("op", Json.Str "eval"); ("id", Json.of_int id);
           ("structure", Json.Str structure); ("formula", Json.Str formula) ]
        @ if ra then [ ("ra", Json.Bool true) ] else []);
    op = (if ra then Eval_ra else Eval);
    check =
      check_expect ~what:(Printf.sprintf "eval %s on %s" formula structure)
        expected;
  }

let load_request ~id ~name ~spec =
  let s = Fmtk.Spec.parse_exn spec in
  let size = Structure.size s and tuples = Structure.tuple_count s in
  {
    line =
      line
        [ ("op", Json.Str "load"); ("id", Json.of_int id);
          ("name", Json.Str name); ("spec", Json.Str spec) ];
    op = Load;
    check =
      (fun r ->
        if int_field "size" r <> Some size || int_field "tuples" r <> Some tuples
        then Util.wrong "load %s=%s: wrong size or tuple count" name spec);
  }

(* ---- serve_read ---- *)

let read_templates = [| t_total; t_irreflexive; t_has_mutual; t_mutual; t_path2 |]
let read_renamings = 52

(* The first [random:n:p:base*1000+j] spec, j = 0, 1, ..., whose graph
   is typical ({!Model.typical}) and has no sink, so that [t_total]
   scans every vertex rather than stopping early. Without this, one
   seed's graphs cost 10-15% more per request than another's. *)
let typical_random ~n ~p ~base =
  let rec go j =
    let spec = Printf.sprintf "random:%d:%g:%d" n p ((base * 1000) + j) in
    let g = Model.of_structure (Fmtk.Spec.parse_exn spec) "E" in
    if j = 999 || (g.Model.sinks = 0 && Model.typical g p) then spec else go (j + 1)
  in
  go 0

(* (name, spec, relation) *)
let read_structures ~seed =
  List.mapi
    (fun i (n, p) ->
      (Printf.sprintf "g%d" i, typical_random ~n ~p ~base:((seed * 8) + i), "E"))
    [ (48, 0.10); (64, 0.08); (80, 0.06); (96, 0.05) ]
  @ List.mapi
      (fun i n -> (Printf.sprintf "o%d" i, Printf.sprintf "order:%d" n, "lt"))
      [ 12; 16; 20; 24 ]

type read_plan = {
  r_structures : (string * string * string) list;
  keys : int -> request; (* popularity rank -> request (fresh id) *)
  nkeys : int;
}

let read_plan ~seed =
  let structs = Array.of_list (read_structures ~seed) in
  let ns = Array.length structs and nt = Array.length read_templates in
  (* expected answers per (structure, template): renamings share them *)
  let expected =
    Array.map
      (fun (_, spec, rel) ->
        let g = Model.of_structure (Fmtk.Spec.parse_exn spec) rel in
        Array.map (fun t -> t.expect g) read_templates)
      structs
  in
  let next_id = ref 0 in
  let keys k =
    let ti = k mod nt and si = k / nt mod ns and r = k / (nt * ns) in
    let name, _, rel = structs.(si) and t = read_templates.(ti) in
    incr next_id;
    eval_request ~id:!next_id ~structure:name ~formula:(text t ~rel r) ~ra:t.ra
      expected.(si).(ti)
  in
  { r_structures = Array.to_list structs; keys; nkeys = ns * nt * read_renamings }

(* Zipf(1) over ranks [0, n): inverse-CDF sampling. *)
let zipf n =
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for k = 0 to n - 1 do
    acc := !acc +. (1. /. float_of_int (k + 1));
    cdf.(k) <- !acc
  done;
  let total = !acc in
  fun rng ->
    let u = Random.State.float rng total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* ---- serve_write ---- *)

(* Updates of one owned structure: insert a fresh absent edge until
   [pending] inserted edges are outstanding, then delete the oldest. *)
type owned = {
  name : string;
  spec : string;
  g : Model.t;
  queries : template list;
  pending : (int * int) Queue.t;
}

let pending = 16

let next_update rng o =
  if Queue.length o.pending >= pending then begin
    let u, v = Queue.pop o.pending in
    Model.delete o.g u v;
    (u, v, false)
  end
  else begin
    let u, v = Model.absent_edge o.g rng in
    Model.insert o.g u v;
    Queue.push (u, v) o.pending;
    (u, v, true)
  end

type writer = {
  wrng : Random.State.t;
  owned : owned array; (* small, large *)
  scratch : string;
  mutable scratch_loaded : bool;
  mutable loads : int;
  mutable ids : int;
  wseed : int;
}

let small_spec ~seed c = Printf.sprintf "random:150:0.03:%d" ((seed * 4) + c)
let large_spec ~seed c = Printf.sprintf "random:600:0.02:%d" ((seed * 4) + 2 + c)

let writer ~seed c =
  let own name spec queries =
    let s = Fmtk.Spec.parse_exn spec in
    { name; spec; g = Model.of_structure s "E"; queries; pending = Queue.create () }
  in
  {
    wrng = Random.State.make [| seed; c; 29 |];
    owned =
      [|
        own (Printf.sprintf "s%d" c) (small_spec ~seed c)
          [ t_total; t_has_mutual; t_mutual; t_path2 ];
        own (Printf.sprintf "l%d" c) (large_spec ~seed c)
          [ t_total; t_has_mutual; t_mutual; t_triangle ];
      |];
    scratch = Printf.sprintf "x%d" c;
    scratch_loaded = false;
    loads = 0;
    ids = c * 100_000_000;
    wseed = seed;
  }

(* Updates applied to the data directory before the server starts, so
   that start-up recovers a snapshot plus a journal tail. *)
let prehistory = 24

let prehistory_updates w =
  List.concat_map
    (fun o ->
      List.init prehistory (fun _ ->
          let u, v, add = next_update w.wrng o in
          (o.name, [| u; v |], add)))
    (Array.to_list w.owned)

let fresh_id w =
  w.ids <- w.ids + 1;
  w.ids

let hot_evals w =
  List.concat_map
    (fun o ->
      List.map
        (fun t ->
          eval_request ~id:(fresh_id w) ~structure:o.name
            ~formula:(text t ~rel:"E" 0) ~ra:t.ra (t.expect o.g))
        o.queries)
    (Array.to_list w.owned)

(* Updates hit the small structure twice as often as the large one, so
   that the median write lies inside the cheaper cluster rather than in
   the gap between the two. *)
let next_write_request w =
  let r = Random.State.int w.wrng 100 in
  if r < 48 then begin
    let large = Random.State.int w.wrng 3 = 0 in
    let o = w.owned.(if large then 1 else 0) in
    let u, v, add = next_update w.wrng o in
    let tuples = o.g.Model.edges in
    {
      line =
        line
          [ ("op", Json.Str "update"); ("id", Json.of_int (fresh_id w));
            ("structure", Json.Str o.name); ("rel", Json.Str "E");
            ("tuple", Json.List [ Json.of_int u; Json.of_int v ]);
            ("action", Json.Str (if add then "insert" else "delete")) ];
      op = (if large then Update_csr else Update_set);
      check =
        (fun r ->
          if Option.bind (Json.member "changed" r) Json.get_bool <> Some true
             || int_field "tuples" r <> Some tuples
          then
            Util.wrong "update %s (%d,%d): expected a change to %d tuples"
              o.name u v tuples);
    }
  end
  else if r < 96 then begin
    let o = w.owned.(Random.State.int w.wrng 2) in
    let qs = Array.of_list o.queries in
    let t = qs.(Random.State.int w.wrng (Array.length qs)) in
    eval_request ~id:(fresh_id w) ~structure:o.name ~formula:(text t ~rel:"E" 0)
      ~ra:t.ra (t.expect o.g)
  end
  else if w.scratch_loaded then begin
    w.scratch_loaded <- false;
    {
      line =
        line
          [ ("op", Json.Str "drop"); ("id", Json.of_int (fresh_id w));
            ("name", Json.Str w.scratch) ];
      op = Drop;
      check =
        (fun r ->
          if Option.bind (Json.member "dropped" r) Json.get_bool <> Some true
          then Util.wrong "drop %s: not dropped" w.scratch);
    }
  end
  else begin
    w.scratch_loaded <- true;
    w.loads <- w.loads + 1;
    load_request ~id:(fresh_id w) ~name:w.scratch
      ~spec:(Printf.sprintf "random:40:0.1:%d" ((w.wseed * 1000) + w.loads))
  end
