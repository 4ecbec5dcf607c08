(* The two serve workloads: the built [fmtk serve] binary in its own
   process with one worker, driven by one single-threaded client that
   multiplexes two connections in a closed loop (each connection sends
   its next request only after the previous reply). With [--trace 1] the
   same request stream is then replayed in-process, calling the server's
   layers in the order the server calls them, once with root spans only
   and once with a span around every layer call. *)

module Json = Fmtk_server.Json
module Protocol = Fmtk_server.Protocol
module Store = Fmtk_server.Store
module Qcache = Fmtk_server.Qcache
module Pcache = Fmtk_server.Pcache
module Journal = Fmtk_server.Journal
module Snapshot = Fmtk_server.Snapshot
module Structure = Fmtk_structure.Structure
module Tuple = Fmtk_structure.Tuple
module Compiled = Fmtk_eval.Compiled
module Relation = Fmtk_db.Relation
open Serve_gen

(* serve_write's durability settings, shared by the server and the
   in-process replay: E29's fsync policy, and a snapshot threshold that a
   25-second run crosses more than ten times. *)
let sync = "interval:32"
let snapshot_threshold = 4 * 1024 * 1024
let cache_capacity = 512 (* the server's default, for both cache tiers *)
let connections = 2
let setups = 5

(* ---- client ---- *)

type sample = {
  req : request;
  mutable t_send : float;
  mutable lat : float; (* client-observed, seconds *)
  mutable ms : float; (* the response's own "ms" field, seconds *)
  mutable ok : bool;
  mutable bytes : int; (* response line, newline included *)
}

let write_all fd s =
  let rec go off =
    if off < String.length s then
      go (off + Unix.write_substring fd s off (String.length s - off))
  in
  go 0

let handle s line =
  let json =
    match Json.parse line with
    | Ok j -> j
    | Error e -> Util.wrong "unparsable response %S: %s" line e
  in
  s.ms <-
    (match Option.bind (Json.member "ms" json) Json.get_float with
    | Some ms -> ms /. 1000.
    | None -> 0.);
  match Option.bind (Json.member "status" json) Json.get_string with
  | Some ("ok" | "degraded") -> (
      s.ok <- true;
      match Json.member "result" json with
      | Some r -> s.req.check r
      | None -> Util.wrong "response without a result: %s" line)
  | _ -> prerr_endline ("fmtk_bench: failed request: " ^ line)

(* Closed loop over [conns]: [next i] gives connection [i]'s next request
   or [None] when it is done. Every [reference_every] seconds the loop
   lets the connections drain, times the host-speed reference while
   nothing is in flight (so no response waits on it), and resumes.
   Returns the samples in send order and the pauses, as (start, end). *)
let reference_every = 0.1

let closed_loop conns ~next =
  let n = Array.length conns in
  let inflight = Array.make n None and rbuf = Array.init n (fun _ -> Buffer.create 4096) in
  let sent = ref [] and outstanding = ref 0 in
  let chunk = Bytes.create 65536 in
  let paused = ref [] and pauses = ref [] in
  let next_reference = ref (Util.now () +. reference_every) in
  let send i =
    match next i with
    | None -> ()
    | Some req ->
        let s = { req; t_send = 0.; lat = 0.; ms = 0.; ok = false; bytes = 0 } in
        sent := s :: !sent;
        let data = req.line ^ "\n" in
        s.t_send <- Util.now ();
        write_all conns.(i) data;
        inflight.(i) <- Some s;
        incr outstanding
  in
  for i = 0 to n - 1 do send i done;
  while !outstanding > 0 do
    let fds = List.filter_map (fun i -> Option.map (fun _ -> conns.(i)) inflight.(i)) (List.init n Fun.id) in
    match Unix.select fds [] [] 60. with
    | [], _, _ -> failwith "the server stopped answering"
    | ready, _, _ ->
        List.iter
          (fun fd ->
            let i = ref 0 in
            while conns.(!i) != fd do incr i done;
            let i = !i in
            let got = Unix.read fd chunk 0 (Bytes.length chunk) in
            if got = 0 then failwith "the server closed a connection";
            Buffer.add_subbytes rbuf.(i) chunk 0 got;
            let data = Buffer.contents rbuf.(i) in
            match String.index_opt data '\n' with
            | None -> ()
            | Some nl ->
                let t1 = Util.now () in
                Buffer.clear rbuf.(i);
                let s = Option.get inflight.(i) in
                inflight.(i) <- None;
                decr outstanding;
                s.lat <- t1 -. s.t_send;
                s.bytes <- nl + 1;
                handle s (String.sub data 0 nl);
                if !paused = [] && t1 < !next_reference then send i
                else begin
                  paused := i :: !paused;
                  if !outstanding = 0 then begin
                    let t = Util.now () in
                    Util.time_reference ();
                    pauses := (t, Util.now ()) :: !pauses;
                    next_reference := Util.now () +. reference_every;
                    let resume = List.rev !paused in
                    paused := [];
                    List.iter send resume
                  end
                end)
          ready
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (Array.of_list (List.rev !sent), !pauses)

let paused_s pauses = List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0. pauses

(* Send a fixed list of requests over the connections, in order; returns
   the time spent paused. *)
let run_list conns reqs =
  let q = Queue.of_seq (List.to_seq reqs) in
  let samples, pauses = closed_loop conns ~next:(fun _ -> Queue.take_opt q) in
  Array.iter
    (fun s -> if not s.ok then failwith ("set-up request failed: " ^ s.req.line))
    samples;
  paused_s pauses

(* The measured phase [t0, t_end) in [window]-second slices, the last,
   partial one left out, each with the host's drift during it
   ({!Util.drift}). A phase shorter than two slices is one slice with no
   drift taken out. *)
let window = 2.0

let slices ~t0 ~t_end =
  let n = int_of_float ((t_end -. t0) /. window) in
  if n < 2 then [| ((t0, t_end), 1.) |]
  else
    Array.init n (fun i ->
        let w = (t0 +. (float_of_int i *. window), t0 +. (float_of_int (i + 1) *. window)) in
        (w, Util.drift w))

(* The drift of the slice a time falls in (the nearest slice when it falls
   outside all of them). *)
let drift_at slices t =
  let (t0, _), _ = slices.(0) in
  let i = int_of_float (Float.floor ((t -. t0) /. window)) in
  snd slices.(max 0 (min (Array.length slices - 1) i))

(* Requests answered per second in each slice, the reference pauses
   taken out and the rate multiplied by the slice's drift; the median
   slice is reported, so that a burst of host noise in a few slices does
   not set it. *)
let windowed_rps slices ~pauses stream =
  let rate ((a, b), d) =
    let count = ref 0 in
    Array.iter
      (fun s ->
        let t = s.t_send +. s.lat in
        if s.ok && t >= a && t < b then incr count)
      stream;
    let paused =
      List.fold_left (fun acc (x, y) -> acc +. Float.max 0. (Float.min y b -. Float.max x a)) 0. pauses
    in
    float_of_int !count /. (b -. a -. paused) *. d
  in
  Util.median_list (Array.to_list (Array.map rate slices))

(* ---- the server process ---- *)

let connect sock pid =
  let deadline = Util.now () +. 60. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            Util.reaped pid;
            failwith "fmtk serve exited during start-up");
        if Util.now () > deadline then failwith "fmtk serve did not come up";
        (* 1 ms polling: the poll interval must not show in setup_s *)
        Unix.sleepf 0.001;
        go ()
  in
  go ()

type server = { pid : int; conns : Unix.file_descr array }

let start ~exe ~sock ~args =
  let pid = Util.spawn exe ([ "serve"; "--socket"; sock; "--workers"; "1"; "--quiet" ] @ args) in
  let first = connect sock pid in
  { pid; conns = Array.init connections (fun i -> if i = 0 then first else connect sock pid) }

(* SIGTERM must drain and exit 0, as E27 requires of every serve run. *)
let stop srv =
  Array.iter Unix.close srv.conns;
  Unix.kill srv.pid Sys.sigterm;
  let _, st = Unix.waitpid [] srv.pid in
  Util.reaped srv.pid;
  match st with
  | Unix.WEXITED 0 -> ()
  | Unix.WEXITED c -> failwith (Printf.sprintf "fmtk serve exited %d after SIGTERM" c)
  | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> failwith "fmtk serve died on SIGTERM"

(* ---- workload set-up ---- *)

type plan = {
  server_args : string list;
  setup : request list; (* loads and the warm-up pass, sent after connecting *)
  next : int -> request; (* the measured stream of connection i *)
  replay_store : string -> Store.t * Store.recovery option;
      (* a fresh store in the state the server started from, for a replay
         under the given name *)
}

let open_store ~dir =
  match
    Store.open_durable ~capacity:256 ~max_size:100_000
      ~sync:(Result.get_ok (Store.sync_policy_of_string sync))
      ~snapshot_threshold ~dir ()
  with
  | Ok p -> p
  | Error e -> failwith e

(* The data directory serve_write starts from: both connections'
   structures in a snapshot, then [prehistory] updates of each in the
   journal, so that start-up replays a journal tail. Advances [writers]
   past the prehistory. *)
let build_data_dir ~dir writers =
  Util.rm_rf dir;
  Util.mkdir_p dir;
  let store, _ = open_store ~dir in
  Array.iter
    (fun w ->
      Array.iter
        (fun o -> ignore (Result.get_ok (Store.put store ~name:o.name (Fmtk.Spec.parse_exn o.spec))))
        w.owned)
    writers;
  (match Store.compact store with Ok () -> () | Error e -> failwith e);
  Array.iter
    (fun w ->
      List.iter
        (fun (name, tup, add) ->
          match Store.update store ~name ~rel:"E" tup ~add with
          | Ok (_, true, _) -> ()
          | _ -> failwith "prehistory update failed")
        (prehistory_updates w))
    writers;
  Store.close store

let read_plan ~seed =
  let p = Serve_gen.read_plan ~seed in
  let rngs = Array.init connections (fun c -> Random.State.make [| seed; c; 7 |]) in
  let z = zipf p.nkeys in
  let id = ref 0 in
  {
    server_args = [];
    setup =
      List.map
        (fun (name, spec, _) -> incr id; load_request ~id:!id ~name ~spec)
        p.r_structures
      (* the warm-up pass: the 512 most popular keys, as many as a cache
         tier holds *)
      @ List.init cache_capacity p.keys;
    next = (fun c -> p.keys (z rngs.(c)));
    replay_store =
      (fun _ -> (Store.create ~capacity:256 ~max_size:100_000 (), None));
  }

let write_plan ~seed ~dir =
  let writers = Array.init connections (writer ~seed) in
  let data = Filename.concat dir "data" in
  build_data_dir ~dir:data writers;
  {
    server_args =
      [ "--data-dir"; data; "--sync"; sync;
        "--snapshot-threshold"; string_of_int snapshot_threshold ];
    setup = List.concat_map hot_evals (Array.to_list writers);
    next = (fun c -> next_write_request writers.(c));
    replay_store =
      (fun name ->
        let replay = Filename.concat dir name in
        build_data_dir ~dir:replay (Array.init connections (writer ~seed));
        let store, r = open_store ~dir:replay in
        (store, Some r));
  }

(* ---- in-process replay ---- *)

(* The server's answer encoding (Server.run_request), rebuilt here so the
   replay's Protocol.ok call encodes what the server encodes. *)
let answer_fields vars tuples =
  if vars = [] then [ ("value", Json.Bool (not (Tuple.Set.is_empty tuples))) ]
  else
    let total = Tuple.Set.cardinal tuples in
    let sample = Tuple.Set.to_seq tuples |> Seq.take 50 |> List.of_seq in
    let tup t = Json.List (List.map Json.of_int (Array.to_list t)) in
    [
      ("vars", Json.List (List.map (fun v -> Json.Str v) vars));
      ("count", Json.of_int total);
      ("tuples", Json.List (List.map tup sample));
      ("truncated", Json.Bool (total > List.length sample));
    ]

type replay = {
  store : Store.t;
  qc : Qcache.t;
  pc : Pcache.t;
  tr : Trace.t;
  probe_dir : string;
  record_bytes : Util.Samples.t; (* journal record size of each mutation *)
  mutable compactions : int;
  mutable applies : int;
}

let fail_on what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* One request, calling the layers in the server's order. Mutations are
   then measured by probes outside the request's span: the journal
   record the store appended (re-encoded through Journal), and, when the
   store compacted, a snapshot write of the same table. *)
let replay_one st ~req (r : request) =
  let sp name f = Trace.span st.tr ~req name f in
  let compactions () =
    match Store.durability_stats st.store with Some d -> d.Store.compactions | None -> 0
  in
  let c0 = if is_write r.op then compactions () else 0 in
  let mutated = ref None in
  sp "request" (fun () ->
      let env = sp "Protocol.parse_request" (fun () -> Protocol.parse_request r.line) in
      let fields =
        match env.Protocol.body with
        | Error (code, msg) -> failwith (code ^ ": " ^ msg)
        | Ok (Protocol.Eval { structure; formula; ra }, _) ->
            let s, seq =
              match sp "Store.get_seq" (fun () -> Store.get_seq st.store structure) with
              | Some p -> p
              | None -> failwith ("no structure " ^ structure)
            in
            let phi =
              fail_on formula
                (sp "Qcache.formula" (fun () ->
                     Qcache.formula st.qc (Structure.signature s) formula))
            in
            if ra then begin
              let h = Pcache.hits st.pc in
              let res =
                sp "Pcache.with_result" (fun () ->
                    Pcache.with_result st.pc ~sname:structure ~seq s formula phi
                      (fun vars rel -> answer_fields vars (Relation.tuples rel)))
              in
              Trace.tag st.tr (if Pcache.hits st.pc > h then "hit" else "miss");
              ("engine", Json.Str "ra") :: fail_on formula res
            end
            else begin
              let h = Qcache.hits st.qc in
              let fields =
                sp "Qcache.with_compiled" (fun () ->
                    Qcache.with_compiled st.qc ~sname:structure s formula phi
                      (fun c ->
                        sp "Compiled.run" (fun () ->
                            if Compiled.free_vars c = [] then
                              [ ("value", Json.Bool (Compiled.run c [||])) ]
                            else
                              answer_fields (Compiled.free_vars c)
                                (Compiled.definable_relation_of c))))
              in
              Trace.tag st.tr (if Qcache.hits st.qc > h then "hit" else "miss");
              fields
            end
        | Ok (Protocol.Update { structure; rel; tuple; add }, _) -> (
            let tup = Array.of_list tuple in
            match sp "Store.update" (fun () -> Store.update st.store ~name:structure ~rel tup ~add) with
            | Error _ -> failwith ("update failed: " ^ r.line)
            | Ok (s', changed, seq) ->
                if changed then begin
                  sp "Pcache.apply_update" (fun () ->
                      Pcache.apply_update st.pc ~sname:structure ~seq s' ~rel tup ~add);
                  st.applies <- st.applies + 1;
                  sp "Qcache.invalidate" (fun () -> Qcache.invalidate st.qc ~sname:structure)
                end;
                mutated := Some (structure, Some s');
                [ ("name", Json.Str structure); ("rel", Json.Str rel);
                  ("tuple", Json.List (List.map Json.of_int tuple));
                  ("action", Json.Str (if add then "insert" else "delete"));
                  ("changed", Json.Bool changed);
                  ("tuples", Json.of_int (Structure.tuple_count s')) ])
        | Ok (Protocol.Load { name; spec = Some spec; _ }, _) ->
            let s = fail_on spec (sp "Spec.parse" (fun () -> Fmtk.Spec.parse spec)) in
            (match sp "Store.put" (fun () -> Store.put st.store ~name s) with
            | Ok () -> ()
            | Error e -> failwith (Store.put_error_to_string e));
            sp "Qcache.invalidate" (fun () -> Qcache.invalidate st.qc ~sname:name);
            sp "Pcache.invalidate" (fun () -> Pcache.invalidate st.pc ~sname:name);
            mutated := Some (name, Some s);
            [ ("name", Json.Str name); ("size", Json.of_int (Structure.size s));
              ("tuples", Json.of_int (Structure.tuple_count s)) ]
        | Ok (Protocol.Drop { name }, _) ->
            if sp "Store.remove" (fun () -> Store.remove st.store name) <> Ok true then
              failwith ("drop failed: " ^ name);
            sp "Qcache.invalidate" (fun () -> Qcache.invalidate st.qc ~sname:name);
            sp "Pcache.invalidate" (fun () -> Pcache.invalidate st.pc ~sname:name);
            mutated := Some (name, None);
            [ ("name", Json.Str name); ("dropped", Json.Bool true) ]
        | Ok _ -> failwith ("unexpected request " ^ r.line)
      in
      ignore (sp "Protocol.ok" (fun () -> Protocol.ok ~ms:0. ~id:env.Protocol.id fields)));
  if st.tr.Trace.detail && is_write r.op && Store.durability_stats st.store <> None then begin
    (match !mutated with
    | Some (name, Some s) ->
        let data = sp "Journal.encode_structure" (fun () -> Journal.encode_structure s) in
        Util.Samples.add st.record_bytes
          (float_of_int (String.length (Journal.encode (Journal.Put { name; data }))))
    | Some (name, None) ->
        Util.Samples.add st.record_bytes
          (float_of_int (String.length (Journal.encode (Journal.Remove { name }))))
    | None -> ());
    let c1 = compactions () in
    if c1 > c0 then begin
      st.compactions <- st.compactions + (c1 - c0);
      let entries =
        List.filter_map
          (fun (name, _) -> Option.map (fun s -> (name, s)) (Store.get st.store name))
          (Store.names st.store)
      in
      fail_on "snapshot probe"
        (sp "Snapshot.write" (fun () -> Snapshot.write ~dir:st.probe_dir entries))
    end
  end

(* Replays the stream twice in lockstep, on two stores in the same start
   state: once with a span around every layer call, once timing whole
   requests only. Alternating request by request (and which replay goes
   first) keeps host-speed drift out of the comparison between them, the
   tracing overhead. Returns (traced, untraced, traced store's recovery). *)
let replay plan ~probe_dir ~setup ~stream =
  Util.mkdir_p probe_dir;
  let state detail =
    let store, recovery = plan.replay_store (if detail then "traced" else "untraced") in
    ( {
        store;
        qc = Qcache.create ~capacity:cache_capacity ();
        pc = Pcache.create ~capacity:cache_capacity ();
        tr = Trace.create ~detail;
        probe_dir;
        record_bytes = Util.Samples.create ();
        compactions = 0;
        applies = 0;
      },
      recovery )
  in
  let traced, recovery = state true and untraced, _ = state false in
  List.iter
    (fun r ->
      replay_one traced ~req:(-1) r;
      replay_one untraced ~req:(-1) r)
    setup;
  let next_reference = ref (Util.now ()) in
  Array.iteri
    (fun i s ->
      if Util.now () >= !next_reference then begin
        Util.time_reference ();
        next_reference := Util.now () +. reference_every
      end;
      let first, second = if i mod 2 = 0 then (traced, untraced) else (untraced, traced) in
      replay_one first ~req:i s.req;
      replay_one second ~req:i s.req)
    stream;
  Store.close traced.store;
  Store.close untraced.store;
  (traced, untraced, recovery)

(* ---- one run ---- *)

let ms x = x *. 1e3
let us x = x *. 1e6

(* Latencies of the ok requests [pick] selects, in send order, each
   divided by the drift of the slice it ended in. *)
let lat_ms slices samples pick =
  let out = Util.Samples.create () in
  Array.iter
    (fun s ->
      if s.ok && pick s.req.op then
        Util.Samples.add out (ms s.lat /. drift_at slices (s.t_send +. s.lat)))
    samples;
  out

(* Per-layer numbers from the two replays, paired request by request with
   the end-to-end samples (the replay ran the same stream in the same
   order). *)
let layer_metrics stream (st : replay) (untraced : replay) recovery =
  let tr = st.tr in
  let med ?tag ?f name = Util.median (Trace.samples ?tag ?f tr name) in
  let rate name =
    let h = Trace.count ~tag:"hit" tr name and m = Trace.count ~tag:"miss" tr name in
    if h + m = 0 then 0. else float_of_int h /. float_of_int (h + m)
  in
  let by_req t name =
    let tbl = Hashtbl.create 4096 in
    List.iter (fun s -> Hashtbl.replace tbl s.Trace.req s) (Trace.named t name);
    tbl
  in
  let roots = by_req tr "request" and roots0 = by_req untraced.tr "request" in
  let decode = by_req tr "Protocol.parse_request" and encode = by_req tr "Protocol.ok" in
  let children = Trace.children_sum tr in
  let dur tbl i = Option.fold ~none:0. ~some:Trace.dur (Hashtbl.find_opt tbl i) in
  let per_op = Hashtbl.create 8 in
  let add op key v =
    let k = (op, key) in
    let sm =
      match Hashtbl.find_opt per_op k with
      | Some sm -> sm
      | None ->
          let sm = Util.Samples.create () in
          Hashtbl.replace per_op k sm;
          sm
    in
    Util.Samples.add sm v
  in
  Array.iteri
    (fun i s ->
      if s.ok then begin
        (* the response's ms runs from admission to just before encoding,
           so it covers queue wait and execution but not decode/encode *)
        let exec = dur roots i -. dur decode i -. dur encode i in
        List.iter
          (fun op ->
            add op "lat" s.lat;
            add op "transport" (s.lat -. s.ms);
            add op "queue" (s.ms -. exec);
            add op "layers" (Option.fold ~none:0. ~some:children (Hashtbl.find_opt roots i));
            add op "traced" (dur roots i);
            add op "untraced" (dur roots0 i))
          [ "all"; op_name s.req.op ]
      end)
    stream;
  let pm op key =
    match Hashtbl.find_opt per_op (op, key) with Some sm -> Util.median sm | None -> 0.
  in
  let recon =
    List.concat_map
      (fun op ->
        let op = op_name op in
        let untraced = pm op "untraced" in
        [
          ( "recon." ^ op ^ ".residual_ms",
            ms (pm op "lat" -. (pm op "transport" +. pm op "queue" +. pm op "layers")) );
          ( "recon." ^ op ^ ".overhead_pct",
            if untraced = 0. then 0. else 100. *. ((pm op "traced" /. untraced) -. 1.) );
        ])
      ops
  in
  [
    ("protocol.decode_us", us (med "Protocol.parse_request"));
    ("protocol.encode_us", us (med "Protocol.ok"));
    ("server.transport_ms", ms (pm "all" "transport"));
    ("server.queue_wait_ms", ms (pm "all" "queue"));
    ("qcache.parse_us", us (med "Qcache.formula"));
    ("qcache.hit_rate", rate "Qcache.with_compiled");
    ("qcache.hit_us", us (med ~tag:"hit" ~f:(Trace.self_times tr) "Qcache.with_compiled"));
    ("qcache.miss_us", us (med ~tag:"miss" ~f:(Trace.self_times tr) "Qcache.with_compiled"));
    ("compiled.run_us", us (med "Compiled.run"));
    ("pcache.hit_rate", rate "Pcache.with_result");
    ("pcache.hit_us", us (med ~tag:"hit" "Pcache.with_result"));
    ("pcache.miss_ms", ms (med ~tag:"miss" "Pcache.with_result"));
    ("store.update_us", us (med "Store.update"));
    ("journal.encode_us", us (med "Journal.encode_structure"));
    ( "journal.bytes_per_write",
      let b = st.record_bytes in
      if Util.Samples.count b = 0 then 0.
      else Util.Samples.sum b /. float_of_int (Util.Samples.count b) );
    ("snapshot.compactions", float_of_int st.compactions);
    ("snapshot.compact_ms", ms (med "Snapshot.write"));
    ("pcache.apply_us", us (med "Pcache.apply_update"));
    ( "pcache.maintained_per_update",
      if st.applies = 0 then 0.
      else float_of_int (Pcache.maintained st.pc) /. float_of_int st.applies );
    ("qcache.invalidate_us", us (med "Qcache.invalidate"));
    ("store.put_ms", ms (med "Store.put"));
    ( "store.recovery_ms",
      Option.fold ~none:0. ~some:(fun r -> r.Store.recovery_ms) recovery );
    ( "store.replayed_records",
      Option.fold ~none:0. ~some:(fun r -> float_of_int r.Store.journal_records) recovery );
  ]
  @ recon

let run ~workload ~seed ~seconds ~trace ~exe : Util.outcome =
  let dir = Printf.sprintf ".bench_out/%s-%d" workload (Unix.getpid ()) in
  Util.rm_rf dir;
  Util.mkdir_p dir;
  Fun.protect ~finally:(fun () -> Util.rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "s.sock" in
  let plan =
    if workload = "serve_read" then read_plan ~seed else write_plan ~seed ~dir
  in
  (* Set-up, [setups] times: spawn, connect, loads (or recovery), warm-up
     pass. The last server goes on to the measured phase. *)
  let setup_s = ref [] and srv = ref None in
  for _ = 1 to setups do
    Option.iter stop !srv;
    let t0 = Util.now () in
    let s = start ~exe ~sock ~args:plan.server_args in
    let paused_s = run_list s.conns plan.setup in
    setup_s := (Util.now () -. t0 -. paused_s) :: !setup_s;
    srv := Some s
  done;
  let srv = Option.get !srv in
  let pid = string_of_int srv.pid in
  let w0 = Util.wchar pid in
  let t0 = Util.now () in
  let deadline = t0 +. seconds in
  let stream, pauses =
    closed_loop srv.conns ~next:(fun c ->
        if Util.now () < deadline then Some (plan.next c) else None)
  in
  let slices = slices ~t0 ~t_end:(Util.now ()) in
  let throughput = windowed_rps slices ~pauses stream in
  let written = Util.wchar pid - w0 in
  let rss = Util.peak_rss_mb pid in
  stop srv;
  let attempted = Array.length stream in
  let ok = Array.fold_left (fun n s -> if s.ok then n + 1 else n) 0 stream in
  let reads = lat_ms slices stream (fun op -> not (is_write op)) in
  let writes = lat_ms slices stream is_write in
  let response_bytes = Array.fold_left (fun n s -> n + s.bytes) 0 stream in
  let acked = Util.Samples.count writes in
  let read_tail, read_pct = Util.tail_chunked reads
  and write_tail, write_pct = Util.tail_chunked writes in
  Printf.printf "%s: %d requests (%d reads, %d acked writes); read tail p%.2f, write tail p%.2f\n"
    workload attempted (Util.Samples.count reads) acked read_pct write_pct;
  let sr = Util.Samples.sorted reads in
  Printf.printf "  read latency ms: p10 %.3f p50 %.3f p90 %.3f p95 %.3f p98 %.3f p99 %.3f p99.9 %.3f\n"
    (Util.quantile_sorted sr 0.1) (Util.quantile_sorted sr 0.5) (Util.quantile_sorted sr 0.9)
    (Util.quantile_sorted sr 0.95) (Util.quantile_sorted sr 0.98) (Util.quantile_sorted sr 0.99)
    (Util.quantile_sorted sr 0.999);
  let e2e =
    [
      Util.m "setup_s" "s" (Util.median_list !setup_s);
      Util.m "throughput_rps" "1/s" throughput;
      Util.m "read_p50_ms" "ms" (Util.median reads);
      Util.m "read_p99_ms" "ms" read_tail;
      Util.m "peak_rss_mb" "MB" rss;
      Util.m "ok_pct" "%" (100. *. float_of_int ok /. float_of_int attempted);
    ]
  in
  let extra =
    [
      Util.m "write_p50_ms" "ms" (Util.median writes);
      Util.m "write_p99_ms" "ms" write_tail;
      Util.m "disk_kb_per_write" "KB"
        (if acked = 0 then 0.
         else float_of_int (written - response_bytes) /. 1024. /. float_of_int acked);
      Util.m "failed_pct" "%" (100. *. float_of_int (attempted - ok) /. float_of_int attempted);
    ]
  in
  let layers =
    if not trace then []
    else begin
      let probe_dir = Filename.concat dir "probe" in
      let traced, untraced, recovery = replay plan ~probe_dir ~setup:plan.setup ~stream in
      Trace.write traced.tr (Printf.sprintf ".bench_out/trace-%s.jsonl" workload);
      layer_metrics stream traced untraced recovery
    end
  in
  { Util.e2e; extra; layers; attempted; failed = attempted - ok }
