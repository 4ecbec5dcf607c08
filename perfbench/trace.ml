(* In-memory spans around the benchmark's own calls into fmtk's public
   functions. Each span has a name, start, end, parent span and the id of
   the request or job it belongs to; [write] dumps them as JSON lines
   when the run ends. A trace with [detail = false] records only root
   spans (one per request or job): that is the untraced replay the
   tracing overhead is measured against. *)

type span = {
  id : int;
  name : string;
  parent : int; (* -1 for a root *)
  req : int;
  tag : string; (* "hit"/"miss" and similar outcome labels; "" if none *)
  t0 : float;
  t1 : float;
}

type t = {
  detail : bool;
  origin : float;
  mutable spans : span list; (* most recently finished first *)
  mutable next : int;
  mutable stack : int list;
}

let create ~detail =
  { detail; origin = Util.now (); spans = []; next = 0; stack = [] }

let span t ~req name f =
  if (not t.detail) && t.stack <> [] then f ()
  else begin
    let id = t.next in
    t.next <- id + 1;
    let parent = match t.stack with p :: _ -> p | [] -> -1 in
    t.stack <- id :: t.stack;
    let finish tag t0 =
      let t1 = Util.now () in
      t.stack <- List.tl t.stack;
      t.spans <- { id; name; parent; req; tag; t0; t1 } :: t.spans
    in
    let t0 = Util.now () in
    match f () with
    | v ->
        finish "" t0;
        v
    | exception e ->
        finish "raised" t0;
        raise e
  end

(* Label the span that finished last (outcomes known only after the call,
   such as a cache hit read off the counters around it). *)
let tag t tag =
  if t.detail then
    match t.spans with s :: rest -> t.spans <- { s with tag } :: rest | [] -> ()

let dur s = s.t1 -. s.t0

(* The summed duration of a span's direct children. *)
let children_sum t =
  let sums = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace sums s.parent
          (dur s +. Option.value (Hashtbl.find_opt sums s.parent) ~default:0.))
    t.spans;
  fun s -> Option.value (Hashtbl.find_opt sums s.id) ~default:0.

(* Self time: the span's duration minus the part its children cover. *)
let self_times t =
  let cs = children_sum t in
  fun s -> dur s -. cs s

(* The measured spans named [name] (set-up work carries a negative
   request id and is left out), oldest first. *)
let named ?tag t name =
  List.filter
    (fun s ->
      s.req >= 0 && s.name = name
      && match tag with None -> true | Some g -> s.tag = g)
    (List.rev t.spans)

(* Samples (seconds) of the spans named [name], measured by [f]
   (default: duration). *)
let samples ?tag ?(f = dur) t name =
  let out = Util.Samples.create () in
  List.iter (fun s -> Util.Samples.add out (f s)) (named ?tag t name);
  out

let count ?tag t name = List.length (named ?tag t name)

let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"name\":%S,\"parent\":%d,\"req\":%d,\"tag\":%S,\"start_us\":%.1f,\"end_us\":%.1f}\n"
        s.id s.name s.parent s.req s.tag
        ((s.t0 -. t.origin) *. 1e6)
        ((s.t1 -. t.origin) *. 1e6))
    (List.rev t.spans);
  close_out oc
