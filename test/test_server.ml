(* Serve-layer tests: the total JSON codec, the wire protocol, the
   structure store, the query cache, and in-process end-to-end
   runs of the full server — including admission-control shedding,
   fault-injected requests, and the graceful-shutdown drain.

   End-to-end tests bind a TCP listener on 127.0.0.1 port 0 (the kernel
   picks a free port) and run the accept loop on a POSIX thread, so the
   whole suite works inside an unprivileged sandbox. *)

module Json = Fmtk_server.Json
module Protocol = Fmtk_server.Protocol
module Store = Fmtk_server.Store
module Journal = Fmtk_server.Journal
module Qcache = Fmtk_server.Qcache
module Server = Fmtk_server.Server
module Budget = Fmtk_runtime.Budget
module Io_fault = Fmtk_runtime.Io_fault
module Gen = Fmtk_structure.Gen
module Structure = Fmtk_structure.Structure
module Structure_io = Fmtk_structure.Structure_io
module Signature = Fmtk_logic.Signature
module Parser = Fmtk_logic.Parser

let checkb msg = Alcotest.check Alcotest.bool msg
let checks msg = Alcotest.check Alcotest.string msg
let checki msg = Alcotest.check Alcotest.int msg

(* ---------- JSON codec ---------- *)

let test_json_roundtrip () =
  let docs =
    [
      "null";
      "true";
      "[1,2,3]";
      {|{"a":1,"b":[true,null,"x"],"c":{"d":-2.5}}|};
      {|"\u00e9\u0041\ud83d\ude00"|};
      (* astral plane via surrogate pair *)
      {|{"nested":[[[{"deep":[1]}]]],"s":"a\"b\\c\nd"}|};
      "-0.5";
      "1e3";
      "[]";
      "{}";
    ]
  in
  List.iter
    (fun doc ->
      match Json.parse doc with
      | Error e -> Alcotest.failf "valid doc %S rejected: %s" doc e
      | Ok v -> (
          let printed = Json.to_string v in
          match Json.parse printed with
          | Error e -> Alcotest.failf "printed form %S rejected: %s" printed e
          | Ok v' ->
              checkb (Printf.sprintf "round-trip %S" doc) true (v = v')))
    docs;
  (* Integral floats print as ints; one line, no control chars. *)
  checks "int print" "42" (Json.to_string (Json.Num 42.));
  checks "escape print" {|"a\nb"|} (Json.to_string (Json.Str "a\nb"));
  checkb "single line" true
    (not (String.contains (Json.to_string (Json.Obj [ ("k", Json.Str "v\n") ])) '\n'))

let test_json_totality () =
  let bad =
    [
      "";
      "   ";
      "{";
      "}";
      "[1,2";
      "[1 2]";
      {|{"a"}|};
      {|{"a":}|};
      {|{a:1}|};
      "tru";
      "nulll?";
      "+5";
      "0x10";
      "1.";
      ".5";
      "1e";
      "\"unterminated";
      "\"bad \\q escape\"";
      "\"ctrl \x01 char\"";
      "\"lone surrogate \\ud800\"";
      "[1],[2]";
      "{} trailing";
      String.make 300 '[' (* past max_depth *);
    ]
  in
  List.iter
    (fun doc ->
      match Json.parse doc with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed doc %S accepted" doc)
    bad;
  (* Random garbage never raises. *)
  let rng = Random.State.make [| 77 |] in
  for _ = 1 to 500 do
    let n = Random.State.int rng 40 in
    let s = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
    match Json.parse s with Ok _ | Error _ -> ()
  done;
  (* Depth limit is a parameter. *)
  (match Json.parse ~max_depth:2 "[[[1]]]" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "depth limit ignored");
  match Json.parse ~max_depth:4 "[[[1]]]" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "shallow doc rejected: %s" e

(* ---------- protocol ---------- *)

let body_code env =
  match env.Protocol.body with
  | Error (code, _) -> Some code
  | Ok _ -> None

let test_protocol_mutants () =
  let docs =
    [
      {|{"op":"eval","id":1,"structure":"c6","formula":"forall x. exists y. E(x,y)","timeout":2.5}|};
      {|{"op":"load","id":"two","name":"g","spec":"random:10:0.5:1"}|};
      {|{"op":"load","id":3,"name":"t","text":"domain 2\nrel E/2 = (0,1)\n"}|};
      {|{"op":"update","id":4,"structure":"c6","rel":"E","tuple":[0,3],"action":"insert"}|};
      {|{"op":"decide","id":5,"left":"a","right":"b","rank":3,"fuel":100}|};
    ]
  in
  List.iteri
    (fun i doc ->
      checkb "valid request parses" true
        (Result.is_ok (Protocol.parse_request doc).Protocol.body);
      List.iter
        (fun m ->
          match (Protocol.parse_request m).Protocol.body with
          | Ok _ | Error _ -> ()
          | exception e ->
              Alcotest.failf "mutant %S raised %s" m (Printexc.to_string e))
        (Mutants.of_doc ~seed:(200 + i) ~count:2000 doc))
    docs

let test_protocol_parse () =
  (* Well-formed requests of every op. *)
  let ok line =
    match (Protocol.parse_request line).Protocol.body with
    | Ok (req, limits) -> (req, limits)
    | Error (c, m) -> Alcotest.failf "%S rejected: %s %s" line c m
  in
  (match ok {|{"op":"ping","id":1}|} with
  | Protocol.Ping, _ -> ()
  | _ -> Alcotest.fail "ping misparsed");
  (match ok {|{"op":"load","name":"c","spec":"cycle:6"}|} with
  | Protocol.Load { name = "c"; spec = Some "cycle:6"; text = None }, _ -> ()
  | _ -> Alcotest.fail "load misparsed");
  (match ok {|{"op":"eval","structure":"c","formula":"E(x,y)","timeout":1.5,"fuel":100}|} with
  | Protocol.Eval { structure = "c"; formula = "E(x,y)"; ra = false }, l ->
      checkb "timeout" true (l.Protocol.timeout = Some 1.5);
      checkb "fuel" true (l.Protocol.fuel = Some 100)
  | _ -> Alcotest.fail "eval misparsed");
  (match ok {|{"op":"game","left":"a","right":"b","rounds":3,"pebbles":2,"counting":true}|} with
  | Protocol.Game { rounds = 3; pebbles = Some 2; counting = true; _ }, _ -> ()
  | _ -> Alcotest.fail "game misparsed");
  (match ok {|{"op":"decide","left":"a","right":"b","rank":4}|} with
  | Protocol.Decide { rank = 4; _ }, _ -> ()
  | _ -> Alcotest.fail "decide misparsed");
  (match ok {|{"op":"drop","name":"c"}|} with
  | Protocol.Drop { name = "c" }, _ -> ()
  | _ -> Alcotest.fail "drop misparsed");
  (* Inline classification. *)
  checkb "ping inline" true (Protocol.is_inline Protocol.Ping);
  checkb "stats inline" true (Protocol.is_inline Protocol.Stats);
  checkb "decide pooled" false
    (Protocol.is_inline (Protocol.Decide { left = "a"; right = "b"; rank = 1 }));
  (* Drop mutates the store, so it must go through the pool (and the
     journal) like load, never the inline fast path. *)
  checkb "drop pooled" false
    (Protocol.is_inline (Protocol.Drop { name = "c" }));
  checkb "drop without name" true
    (body_code (Protocol.parse_request {|{"op":"drop"}|}) = Some "bad-request");
  (* Malformed bodies keep the id and name a code. *)
  let env = Protocol.parse_request {|{"op":"nope","id":7}|} in
  checkb "unknown op id echoed" true (env.Protocol.id = Some (Json.Num 7.));
  checkb "unknown op code" true (body_code env = Some "bad-request");
  checkb "bad json code" true
    (body_code (Protocol.parse_request "{oops") = Some "bad-json");
  checkb "non-object code" true
    (body_code (Protocol.parse_request "[1,2]") = Some "bad-request");
  checkb "missing field code" true
    (body_code (Protocol.parse_request {|{"op":"eval","structure":"c"}|})
    = Some "bad-request");
  checkb "wrong type code" true
    (body_code
       (Protocol.parse_request {|{"op":"decide","left":"a","right":"b","rank":"x"}|})
    = Some "bad-request");
  (* Responses are valid single-line JSON echoing the id. *)
  let line = Protocol.ok ~ms:1.25 ~id:(Some (Json.Str "r1")) [ ("x", Json.of_int 1) ] in
  (match Json.parse line with
  | Ok v ->
      checkb "ok status" true (Json.member "status" v = Some (Json.Str "ok"));
      checkb "ok id" true (Json.member "id" v = Some (Json.Str "r1"))
  | Error e -> Alcotest.failf "ok line unparseable: %s" e);
  match Json.parse (Protocol.shed ~id:None ~retry_after_ms:50) with
  | Ok v ->
      checkb "shed status" true
        (Json.member "status" v = Some (Json.Str "shed"));
      checkb "shed code" true
        (Json.member "code" v = Some (Json.Str "overloaded"))
  | Error e -> Alcotest.failf "shed line unparseable: %s" e

(* ---------- store ---------- *)

let test_store () =
  let st = Store.create ~capacity:2 ~max_size:10 () in
  checkb "put" true (Store.put st ~name:"a" (Gen.cycle 3) = Ok ());
  checkb "get" true (Store.get st "a" <> None);
  checkb "get missing" true (Store.get st "zzz" = None);
  (* Rebinding an existing name is allowed even at capacity. *)
  checkb "put b" true (Store.put st ~name:"b" (Gen.cycle 4) = Ok ());
  checkb "rebind at capacity" true (Store.put st ~name:"a" (Gen.cycle 5) = Ok ());
  checkb "rebind took" true
    (match Store.get st "a" with
    | Some s -> Structure.size s = 5
    | None -> false);
  (* Fresh names past capacity and oversized structures are refused —
     with distinct error codes, so a client knows whether dropping
     something would help. *)
  checkb "store full" true
    (match Store.put st ~name:"c" (Gen.cycle 3) with
    | Error (Store.Full _) -> true
    | _ -> false);
  checkb "oversized" true
    (match Store.put st ~name:"a" (Gen.cycle 11) with
    | Error (Store.Too_large _) -> true
    | _ -> false);
  checki "count" 2 (Store.count st);
  checki "names" 2 (List.length (Store.names st));
  (* Removal frees capacity; removing an absent name is a clean no. *)
  checkb "remove" true (Store.remove st "a" = Ok true);
  checkb "remove absent" true (Store.remove st "a" = Ok false);
  checkb "freed capacity" true (Store.put st ~name:"c" (Gen.cycle 3) = Ok ());
  checki "count after churn" 2 (Store.count st);
  (* In-memory stores have no durability surface. *)
  checkb "no durability stats" true (Store.durability_stats st = None);
  checkb "no compaction" true
    (match Store.compact st with Error _ -> true | Ok () -> false)

let test_store_update () =
  let module Tuple = Fmtk_structure.Tuple in
  let st = Store.create () in
  checkb "seed" true (Store.put st ~name:"g" (Gen.cycle 4) = Ok ());
  let edge s u v = Structure.mem s "E" [| u; v |] in
  (* Insert is visible through the store and returns the new binding
     plus the name's bumped mutation sequence (the seed put was seq 1). *)
  (match Store.update st ~name:"g" ~rel:"E" [| 0; 2 |] ~add:true with
  | Ok (s', true, seq) ->
      checkb "insert visible in returned value" true (edge s' 0 2);
      checkb "insert visible via get" true
        (match Store.get st "g" with Some s -> edge s 0 2 | None -> false);
      checkb "returned value is the binding" true (Store.get st "g" = Some s');
      checki "insert bumps seq past the put" 2 seq;
      checkb "get_seq agrees" true (Store.get_seq st "g" = Some (s', seq))
  | _ -> Alcotest.fail "insert refused");
  (* Idempotent insert / absent delete: acknowledged no-ops, binding and
     sequence untouched. *)
  let before = Store.get st "g" in
  (match Store.update st ~name:"g" ~rel:"E" [| 0; 2 |] ~add:true with
  | Ok (_, false, seq) -> checki "no-op keeps seq" 2 seq
  | _ -> Alcotest.fail "re-insert should be a no-op");
  (match Store.update st ~name:"g" ~rel:"E" [| 2; 0 |] ~add:false with
  | Ok (_, false, seq) -> checki "no-op keeps seq" 2 seq
  | _ -> Alcotest.fail "absent delete should be a no-op");
  checkb "no-ops keep identity" true (Store.get st "g" = before);
  (* Delete removes and keeps the sequence climbing. *)
  (match Store.update st ~name:"g" ~rel:"E" [| 0; 2 |] ~add:false with
  | Ok (s', true, seq) ->
      checkb "delete took" true (not (edge s' 0 2));
      checki "delete bumps seq" 3 seq
  | _ -> Alcotest.fail "delete refused");
  (* Total validation: every bad input is a typed error. *)
  let invalid = function Error (`Invalid _) -> true | _ -> false in
  checkb "unknown name" true
    (match Store.update st ~name:"zzz" ~rel:"E" [| 0; 1 |] ~add:true with
    | Error (`Unknown _) -> true
    | _ -> false);
  checkb "unknown rel" true
    (invalid (Store.update st ~name:"g" ~rel:"R" [| 0 |] ~add:true));
  checkb "bad arity" true
    (invalid (Store.update st ~name:"g" ~rel:"E" [| 0 |] ~add:true));
  checkb "out of domain" true
    (invalid (Store.update st ~name:"g" ~rel:"E" [| 0; 7 |] ~add:true))

(* ---------- journal codec ---------- *)

let tmp_counter = ref 0

let rec rm_rf p =
  match Unix.lstat p with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
  | _ -> Unix.unlink p
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let with_tmp_dir f =
  incr tmp_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "fmtk-t%d-%d" (Unix.getpid ()) !tmp_counter)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> try rm_rf dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

let write_file path bytes =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc bytes)

let replay_list path =
  match Journal.replay ~path ~init:[] ~f:(fun acc r -> Ok (r :: acc)) with
  | Ok (rev, n, tail) -> Ok (List.rev rev, n, tail)
  | Error _ as e -> e

let test_journal_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "j.fmtk" in
  let records =
    [
      Journal.Put { name = "a"; data = "" };
      Journal.Remove { name = "" };
      Journal.Put
        { name = "weird \n\x00\xff name"; data = String.init 256 Char.chr };
      Journal.Remove { name = "gone" };
      Journal.Generation 0;
      Journal.Generation max_int;
      Journal.Update { name = "z"; rel = "Z"; tuple = [||]; add = true };
      Journal.Update
        { name = "a\x00b\nc"; rel = "E"; tuple = [| 0; max_int |]; add = false };
      Journal.Update { name = ""; rel = ""; tuple = [| 7; 0; 3 |]; add = true };
    ]
  in
  write_file path (String.concat "" (List.map Journal.encode records));
  (match replay_list path with
  | Ok (rs, n, Journal.Clean) ->
      checki "replay count" (List.length records) n;
      checkb "records round-trip" true (rs = records)
  | Ok (_, _, Journal.Torn _) -> Alcotest.fail "intact file reported torn"
  | Error e -> Alcotest.fail (Journal.error_to_string e));
  (* A missing journal is an empty journal, not an error. *)
  match replay_list (Filename.concat dir "absent") with
  | Ok ([], 0, Journal.Clean) -> ()
  | _ -> Alcotest.fail "missing file should replay as empty"

let test_journal_structure_forms () =
  (* Graph-shaped structures journal in the streaming [graph N] form;
     CSR-backed graphs round-trip through it byte-identically. *)
  let n = Structure.csr_auto_threshold + 10 in
  let big = Gen.cycle n in
  let data = Journal.encode_structure big in
  checkb "csr graph journals in graph form" true
    (String.length data > 6 && String.sub data 0 6 = "graph ");
  (match Journal.decode_structure data with
  | Ok s' ->
      checkb "csr round-trip equal" true (Structure.equal big s');
      checks "csr round-trip print"
        (Structure_io.to_string big)
        (Structure_io.to_string s')
  | Error e -> Alcotest.fail e);
  (* A single-binary-relation structure NOT named E must keep the
     directive form — the graph form would rename its relation. *)
  let lo = Gen.linear_order 5 in
  let data = Journal.encode_structure lo in
  checkb "non-graph keeps directive form" true
    (String.length data < 6 || String.sub data 0 6 <> "graph ");
  match Journal.decode_structure data with
  | Ok s' -> checkb "directive round-trip" true (Structure.equal lo s')
  | Error e -> Alcotest.fail e

let prop_journal_records_roundtrip =
  let open QCheck2 in
  let gen_record =
    Gen.(
      let any_string = string_size ~gen:(char_range '\x00' '\xff') (0 -- 64) in
      oneof
        [
          map2
            (fun name data -> Journal.Put { name; data })
            any_string any_string;
          map (fun name -> Journal.Remove { name }) any_string;
          map (fun g -> Journal.Generation (g land max_int)) int;
          map4
            (fun name rel tuple add ->
              Journal.Update
                {
                  name;
                  rel;
                  tuple = Array.of_list (List.map (fun v -> v land max_int) tuple);
                  add;
                })
            any_string any_string
            (list_size (0 -- 4) int)
            bool;
        ])
  in
  QCheck2.Test.make ~name:"journal file of random records round-trips"
    ~count:60
    QCheck2.Gen.(list_size (0 -- 20) gen_record)
    (fun records ->
      with_tmp_dir @@ fun dir ->
      let path = Filename.concat dir "j.fmtk" in
      write_file path (String.concat "" (List.map Journal.encode records));
      match replay_list path with
      | Ok (rs, n, Journal.Clean) ->
          n = List.length records && rs = records
      | _ -> false)

(* The payload decoder is total: any payload behind a valid frame —
   above all a truncated or padded update or generation record —
   replays as a record or as [Corrupt], never as an exception. *)
let prop_journal_decoder_total =
  let open QCheck2 in
  Test.make ~name:"journal decoder is total on framed garbage" ~count:300
    Gen.(
      pair (oneofl [ 'P'; 'D'; 'U'; 'G'; 'X' ])
        (string_size ~gen:(char_range '\x00' '\xff') (0 -- 40)))
    (fun (tag, tail) ->
      with_tmp_dir @@ fun dir ->
      let path = Filename.concat dir "j.fmtk" in
      write_file path (Journal.frame (String.make 1 tag ^ tail));
      match replay_list path with
      | Ok (_, 1, Journal.Clean) | Error (Journal.Corrupt { at = 0; _ }) -> true
      | _ -> false)

let prop_journal_structures_roundtrip =
  let gen_structure =
    QCheck2.Gen.(
      let* pick = 0 -- 2 in
      match pick with
      | 0 ->
          let* n = 1 -- 30 in
          let* seed = 0 -- 10_000 in
          return
            (Gen.random_graph ~rng:(Random.State.make [| seed |]) n 0.3)
      | 1 ->
          let* n = 1 -- 24 in
          return (Gen.cycle n)
      | _ ->
          let* n = 1 -- 12 in
          return (Gen.linear_order n))
  in
  QCheck2.Test.make ~name:"journal structure payloads round-trip" ~count:60
    gen_structure (fun s ->
      match Journal.decode_structure (Journal.encode_structure s) with
      | Error _ -> false
      | Ok s' ->
          Structure.equal s s'
          && Structure_io.to_string s = Structure_io.to_string s')

(* The torn/corrupt corpus: one fixed journal holding every record
   kind, damaged every possible way. Truncation at every byte boundary must recover the
   clean prefix (a kill -9 can produce exactly these files); a flipped
   byte anywhere before the final record's payload must refuse. *)

let corpus_records =
  [
    Journal.Generation 3;
    Journal.Put { name = "a"; data = "alpha" };
    Journal.Update { name = "a"; rel = "Z"; tuple = [||]; add = true };
    Journal.Put { name = "bb"; data = String.make 37 'x' };
    Journal.Update
      { name = "b\x00\nb"; rel = "E"; tuple = [| max_int; 0 |]; add = false };
    Journal.Remove { name = "a" };
  ]

let test_journal_truncation_corpus () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "j.fmtk" in
  let encoded = List.map Journal.encode corpus_records in
  let full = String.concat "" encoded in
  let total = String.length full in
  (* Record-end offsets, 0 included: every clean stopping point. *)
  let boundaries =
    List.rev
      (List.fold_left
         (fun acc e -> (List.hd acc + String.length e) :: acc)
         [ 0 ] encoded)
  in
  for cut = 0 to total do
    write_file path (String.sub full 0 cut);
    let complete =
      List.length (List.filter (fun b -> b > 0 && b <= cut) boundaries)
    in
    let last_boundary =
      List.fold_left (fun m b -> if b <= cut then max m b else m) 0 boundaries
    in
    match replay_list path with
    | Error e ->
        Alcotest.failf "cut at %d refused: %s" cut (Journal.error_to_string e)
    | Ok (rs, n, tail) -> (
        checki (Printf.sprintf "records at cut %d" cut) complete n;
        checkb
          (Printf.sprintf "prefix at cut %d" cut)
          true
          (rs = List.filteri (fun i _ -> i < complete) corpus_records);
        match tail with
        | Journal.Clean ->
            checkb
              (Printf.sprintf "clean only at boundaries (cut %d)" cut)
              true (cut = last_boundary)
        | Journal.Torn { at; dropped } ->
            checkb
              (Printf.sprintf "torn off-boundary (cut %d)" cut)
              true
              (cut <> last_boundary);
            checki (Printf.sprintf "torn at (cut %d)" cut) last_boundary at;
            checki
              (Printf.sprintf "torn dropped (cut %d)" cut)
              (cut - last_boundary) dropped)
  done

let test_journal_flip_corpus () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "j.fmtk" in
  let encoded = List.map Journal.encode corpus_records in
  let full = String.concat "" encoded in
  let total = String.length full in
  let last_off =
    List.fold_left ( + ) 0
      (List.map String.length
         (List.filteri
            (fun i _ -> i < List.length encoded - 1)
            encoded))
  in
  (* Damage before this offset can never be a legal kill -9 tear; at or
     past it (the final record's payload) a checksum failure ending at
     EOF is indistinguishable from one, and must be dropped as a tear. *)
  let last_payload_start = last_off + 12 in
  for p = 0 to total - 1 do
    let b = Bytes.of_string full in
    Bytes.set b p (Char.chr (Char.code (Bytes.get b p) lxor 0xff));
    write_file path (Bytes.to_string b);
    match replay_list path with
    | Error (Journal.Corrupt _) ->
        checkb
          (Printf.sprintf "corrupt only before last payload (flip %d)" p)
          true
          (p < last_payload_start)
    | Ok (rs, n, Journal.Torn { at; _ }) ->
        checkb
          (Printf.sprintf "tear only in last payload (flip %d)" p)
          true
          (p >= last_payload_start);
        let kept = List.length corpus_records - 1 in
        checki (Printf.sprintf "tear keeps prefix (flip %d)" p) kept n;
        checki (Printf.sprintf "tear offset (flip %d)" p) last_off at;
        checkb
          (Printf.sprintf "tear prefix records (flip %d)" p)
          true
          (rs = List.filteri (fun i _ -> i < kept) corpus_records)
    | Ok (_, _, Journal.Clean) ->
        Alcotest.failf "flipped byte at %d went undetected" p
    | Error (Journal.Io_error e) ->
        Alcotest.failf "flip at %d gave io error: %s" p e
  done

(* ---------- durable store ---------- *)

let put_ok st name s =
  match Store.put st ~name s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "put %s: %s" name (Store.put_error_to_string e)

let open_dir ?sync ?snapshot_threshold ?inject dir =
  match Store.open_durable ?sync ?snapshot_threshold ?inject ~dir () with
  | Ok v -> v
  | Error e -> Alcotest.failf "open_durable: %s" e

let print_of st name =
  match Store.get st name with
  | Some s -> Structure_io.to_string s
  | None -> Alcotest.failf "structure %s missing after recovery" name

let test_store_recovery () =
  with_tmp_dir @@ fun dir ->
  let st, r = open_dir dir in
  checki "fresh dir has nothing to recover" 0
    (r.Store.snapshot_records + r.Store.journal_records);
  put_ok st "a" (Gen.cycle 5);
  put_ok st "b" (Gen.linear_order 4);
  let b_print = print_of st "b" in
  checkb "remove acked" true (Store.remove st "a" = Ok true);
  put_ok st "c" (Gen.grid 2 3);
  let c_print = print_of st "c" in
  Store.close st;
  (* A closed durable store is read-only. *)
  checkb "closed store refuses puts" true
    (match Store.put st ~name:"z" (Gen.cycle 3) with
    | Error (Store.Io _) -> true
    | _ -> false);
  let st2, r2 = open_dir dir in
  checki "journal replayed" 4 r2.Store.journal_records;
  checki "torn bytes" 0 r2.Store.torn_bytes;
  checki "recovered count" 2 (Store.count st2);
  checkb "removed name stays gone" true (Store.get st2 "a" = None);
  checks "b byte-identical" b_print (print_of st2 "b");
  checks "c byte-identical" c_print (print_of st2 "c");
  (* The recovered store keeps acking mutations. *)
  put_ok st2 "d" (Gen.cycle 7);
  Store.close st2;
  let st3, _ = open_dir dir in
  checki "second recovery" 3 (Store.count st3);
  Store.close st3

let test_store_torn_write () =
  with_tmp_dir @@ fun dir ->
  (* The third append dies after 7 bytes — a torn frame on disk, the
     "process" gone. Everything acked before it must survive; the torn
     record must be invisible; the journal must keep accepting work. *)
  let inject = Io_fault.create (Io_fault.Short_write { at = 3; bytes = 7 }) in
  let st, _ = open_dir ~inject dir in
  put_ok st "a" (Gen.cycle 5);
  put_ok st "b" (Gen.cycle 6);
  let a_print = print_of st "a" in
  (match Store.put st ~name:"c" (Gen.cycle 9) with
  | exception Io_fault.Crash -> ()
  | Ok () -> Alcotest.fail "injected short write did not crash"
  | Error e -> Alcotest.fail (Store.put_error_to_string e));
  let st2, r = open_dir dir in
  checkb "torn tail truncated" true (r.Store.torn_bytes > 0);
  checki "acked mutations survived" 2 (Store.count st2);
  checkb "torn record invisible" true (Store.get st2 "c" = None);
  checks "acked bytes intact" a_print (print_of st2 "a");
  (* The truncated journal is a valid append point. *)
  put_ok st2 "c" (Gen.cycle 9);
  Store.close st2;
  let st3, r3 = open_dir dir in
  checki "clean after re-append" 0 r3.Store.torn_bytes;
  checki "final count" 3 (Store.count st3);
  Store.close st3

let test_store_crash_points () =
  (* Crash_after_append: the record is complete on disk but never
     acked — recovering it is allowed (and with a completed append,
     expected). Crash_before_sync: same file state, crash in fsync. In
     both cases recovery must be clean and every acked put intact. *)
  List.iter
    (fun point ->
      with_tmp_dir @@ fun dir ->
      let inject = Io_fault.create point in
      let st, _ = open_dir ~inject dir in
      put_ok st "a" (Gen.cycle 5);
      (match Store.put st ~name:"b" (Gen.cycle 6) with
      | exception Io_fault.Crash -> ()
      | Ok () -> Alcotest.fail "injected crash did not fire"
      | Error e -> Alcotest.fail (Store.put_error_to_string e));
      let st2, r = open_dir dir in
      checki "no tear from a clean append" 0 r.Store.torn_bytes;
      checkb "acked put survived" true (Store.get st2 "a" <> None);
      checkb "unacked put recovered whole, or not at all" true
        (match Store.get st2 "b" with
        | None -> true
        | Some s -> Structure.equal s (Gen.cycle 6));
      Store.close st2)
    [ Io_fault.Crash_after_append 2; Io_fault.Crash_before_sync 2 ]

(* The same crash points on an update: its logical record is recovered
   whole or not at all, and a torn one is truncated away. *)
let test_store_update_crash_points () =
  let edited =
    Structure.with_rel (Gen.cycle 5) "E" 2
      (Fmtk_structure.Tuple.Set.add [| 0; 2 |]
         (Structure.rel (Gen.cycle 5) "E"))
  in
  List.iter
    (fun point ->
      with_tmp_dir @@ fun dir ->
      let inject = Io_fault.create point in
      let st, _ = open_dir ~inject dir in
      put_ok st "g" (Gen.cycle 5);
      (match Store.update st ~name:"g" ~rel:"E" [| 0; 2 |] ~add:true with
      | exception Io_fault.Crash -> ()
      | _ -> Alcotest.fail "injected crash did not fire");
      let st2, _ = open_dir dir in
      checkb "unacked update recovered whole, or not at all" true
        (match Store.get st2 "g" with
        | Some s -> Structure.equal s (Gen.cycle 5) || Structure.equal s edited
        | None -> false);
      Store.close st2)
    [
      Io_fault.Crash_after_append 2;
      Io_fault.Crash_before_sync 2;
      Io_fault.Short_write { at = 2; bytes = 20 };
    ]

let test_store_compaction () =
  with_tmp_dir @@ fun dir ->
  let st, _ = open_dir ~sync:Store.Never ~snapshot_threshold:1 dir in
  (* threshold clamps to 4096 bytes; ~200 records cross it repeatedly *)
  for i = 1 to 200 do
    put_ok st (Printf.sprintf "s%03d" i) (Gen.cycle (3 + (i mod 7)))
  done;
  let d =
    match Store.durability_stats st with
    | Some d -> d
    | None -> Alcotest.fail "durable store without stats"
  in
  checkb "compaction ran" true (d.Store.compactions >= 1);
  checkb "journal stays bounded" true (d.Store.journal_bytes < 3 * 4096);
  (* Explicit compaction empties the journal entirely. *)
  (match Store.compact st with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let d2 = Option.get (Store.durability_stats st) in
  checki "journal empty after compact" 0 d2.Store.journal_bytes;
  Store.close st;
  let st2, r = open_dir dir in
  checki "all records in the snapshot" 200 r.Store.snapshot_records;
  checki "journal tail empty" 0 r.Store.journal_records;
  checki "everything recovered" 200 (Store.count st2);
  checks "spot-check bytes"
    (Structure_io.to_string (Gen.cycle (3 + (77 mod 7))))
    (print_of st2 "s077");
  Store.close st2

let test_store_corrupt_refusal () =
  with_tmp_dir @@ fun dir ->
  let st, _ = open_dir dir in
  put_ok st "a" (Gen.cycle 5);
  put_ok st "b" (Gen.cycle 6);
  Store.close st;
  (* Flip a byte in the FIRST record: mid-file damage, not a tear. *)
  let jpath = Filename.concat dir "journal.fmtk" in
  let data = In_channel.with_open_bin jpath In_channel.input_all in
  let b = Bytes.of_string data in
  Bytes.set b 2 (Char.chr (Char.code (Bytes.get b 2) lxor 0xff));
  write_file jpath (Bytes.to_string b);
  match Store.open_durable ~dir () with
  | Ok _ -> Alcotest.fail "corrupt journal accepted"
  | Error e ->
      checkb "refusal names the corruption" true
        (let has sub =
           let n = String.length sub and m = String.length e in
           let rec go i = i + n <= m && (String.sub e i n = sub || go (i + 1)) in
           go 0
         in
         has "corrupt" && has "byte")

let contains hay sub =
  let n = String.length sub and m = String.length hay in
  let rec go i = i + n <= m && (String.sub hay i n = sub || go (i + 1)) in
  go 0

let print_all st =
  List.map (fun (name, _) -> (name, print_of st name)) (Store.names st)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Every way an update record can fail to apply on replay refuses the
   store as corrupt at that record's offset — never skipped — even with
   valid records after it. *)
let test_store_update_refusals () =
  let g =
    Structure.make Signature.graph ~size:4 [ ("E", [ [| 0; 1 |]; [| 1; 2 |] ]) ]
  in
  let put name s =
    Journal.encode (Journal.Put { name; data = Journal.encode_structure s })
  in
  let upd ?(name = "g") ?(rel = "E") tuple add =
    Journal.encode (Journal.Update { name; rel; tuple; add })
  in
  let cases =
    [
      ("unknown structure", [ put "g" g ], upd ~name:"h" [| 0; 2 |] true,
       "unknown structure");
      ("dropped structure",
       [ put "g" g; Journal.encode (Journal.Remove { name = "g" }) ],
       upd [| 0; 2 |] true, "unknown structure");
      ("unknown relation", [ put "g" g ], upd ~rel:"R" [| 0 |] true,
       "no relation");
      ("wrong arity", [ put "g" g ], upd [| 0 |] true, "arity");
      ("outside the domain", [ put "g" g ], upd [| 0; 4 |] true, "[0,4)");
      ("insert of a present tuple", [ put "g" g ], upd [| 0; 1 |] true,
       "changes nothing");
      ("delete of an absent tuple", [ put "g" g ], upd [| 0; 2 |] false,
       "changes nothing");
      ("repeat of a pending insert", [ put "g" g; upd [| 0; 2 |] true ],
       upd [| 0; 2 |] true, "changes nothing");
      ("repeat of a pending delete", [ put "g" g; upd [| 0; 1 |] false ],
       upd [| 0; 1 |] false, "changes nothing");
    ]
  in
  List.iter
    (fun (what, prefix, bad, reason) ->
      with_tmp_dir @@ fun dir ->
      let prefix = String.concat "" prefix in
      write_file (Filename.concat dir "journal.fmtk")
        (prefix ^ bad ^ put "after" g);
      match Store.open_durable ~dir () with
      | Ok (st, _) ->
          Store.close st;
          Alcotest.failf "%s: replay accepted" what
      | Error e ->
          let at = Printf.sprintf "corrupt at byte %d: " (String.length prefix) in
          checkb (Printf.sprintf "%s: refused at its offset (%s)" what e) true
            (contains e at && contains e reason))
    cases;
  (* The same journals minus the bad record recover; so does an update
     at the largest coordinate a default-sized store admits. *)
  with_tmp_dir @@ fun dir ->
  let n = 100_000 in
  let wide = Structure.make Signature.graph ~size:n [] in
  write_file (Filename.concat dir "journal.fmtk")
    (put "g" g ^ upd [| 0; 2 |] true ^ upd [| 0; 1 |] false ^ upd [| 0; 1 |] true
    ^ put "w" wide
    ^ upd ~name:"w" [| n - 1; n - 1 |] true);
  let st, r = open_dir dir in
  checki "every mutation replayed" 6 r.Store.journal_records;
  checkb "net edits applied" true
    (match Store.get st "g" with
    | Some s ->
        Structure.mem s "E" [| 0; 2 |] && Structure.mem s "E" [| 0; 1 |]
        && Structure.rel_count s "E" = 3
    | None -> false);
  checkb "largest coordinate" true
    (match Store.get st "w" with
    | Some s -> Structure.mem s "E" [| n - 1; n - 1 |]
    | None -> false);
  Store.close st

(* Random histories of put, update, remove and compact recover with
   every structure printing byte-identically — after a clean close, and
   after the crash between a compaction's snapshot and its journal
   reset, simulated by copying the pre-compaction journal back. *)
let test_store_random_histories () =
  let rng = Random.State.make [| 29 |] in
  let mixed = Signature.make [ ("E", 2); ("T", 3); ("Z", 0) ] in
  let gen_structure () =
    match Random.State.int rng 5 with
    | 0 -> Gen.cycle (2 + Random.State.int rng 10)
    | 1 -> Gen.random_graph ~rng (1 + Random.State.int rng 12) 0.3
    | 2 -> Gen.linear_order (1 + Random.State.int rng 6)
    | 3 -> Structure.make mixed ~size:(1 + Random.State.int rng 4) []
    | _ ->
        (* just over the CSR threshold: deletes cross back under it *)
        Gen.random_graph ~rng 70 0.85
  in
  let names = [| "a"; "b"; "c\x00\n" |] in
  let compact_with_stale_copy st dir =
    let jpath = Filename.concat dir "journal.fmtk" in
    let before = read_file jpath in
    (match Store.compact st with Ok () -> () | Error e -> Alcotest.fail e);
    Store.close st;
    write_file jpath before
  in
  let reopen_and_check what dir expected =
    let st, _ = open_dir ~sync:Store.Never ~snapshot_threshold:4096 dir in
    checkb what true (print_all st = expected);
    st
  in
  for trial = 1 to 25 do
    with_tmp_dir @@ fun dir ->
    let st = ref (fst (open_dir ~sync:Store.Never ~snapshot_threshold:4096 dir)) in
    (* The stale update the generation guards against: an update whose
       base is in an older snapshot, its name later reloaded smaller —
       replayed over the newer snapshot, it would not apply. *)
    put_ok !st "a" (Gen.cycle 10);
    checkb "compact" true (Store.compact !st = Ok ());
    checkb "update" true
      (Result.is_ok (Store.update !st ~name:"a" ~rel:"E" [| 9; 9 |] ~add:true));
    checkb "remove" true (Store.remove !st "a" = Ok true);
    put_ok !st "a" (Gen.cycle 5);
    let live = print_all !st in
    compact_with_stale_copy !st dir;
    st :=
      reopen_and_check
        (Printf.sprintf "trial %d: stale journal over a reload" trial)
        dir live;
    for _ = 1 to 40 do
      let name = names.(Random.State.int rng (Array.length names)) in
      match (Random.State.int rng 12, Store.get !st name) with
      | 0, _ | _, None -> put_ok !st name (gen_structure ())
      | 1, Some _ -> checkb "remove" true (Store.remove !st name = Ok true)
      | 2, Some _ -> checkb "compact" true (Store.compact !st = Ok ())
      | _, Some s ->
          let rels = Signature.rels (Structure.signature s) in
          let rel, arity = List.nth rels (Random.State.int rng (List.length rels)) in
          let size = Structure.size s in
          let tup = Array.init arity (fun _ -> Random.State.int rng size) in
          (* Half the time toggle the tuple: every such update changes
             something, and big graphs shrink as often as they grow. *)
          let add =
            if Random.State.bool rng then not (Structure.mem s rel tup)
            else Random.State.bool rng
          in
          (match Store.update !st ~name ~rel tup ~add with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "valid update refused")
    done;
    let live = print_all !st in
    Store.close !st;
    st := reopen_and_check (Printf.sprintf "trial %d: reopen" trial) dir live;
    compact_with_stale_copy !st dir;
    st :=
      reopen_and_check
        (Printf.sprintf "trial %d: stale journal discarded" trial)
        dir live;
    (* and the store keeps journaling on top of it *)
    put_ok !st "d" (Gen.cycle 3);
    checkb "update after discard" true
      (Result.is_ok (Store.update !st ~name:"d" ~rel:"E" [| 0; 0 |] ~add:true));
    let live = print_all !st in
    Store.close !st;
    Store.close
      (reopen_and_check (Printf.sprintf "trial %d: after discard" trial) dir live)
  done

(* A data dir written before logical records and generations existed —
   framed by hand here, so the format is pinned independently of the
   encoder — recovers, keeps journaling, and compacts. *)
let test_store_pre_generation_data_dir () =
  with_tmp_dir @@ fun dir ->
  let u32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff)) in
  let frame payload =
    let header = u32 (String.length payload) ^ u32 (Journal.crc32 payload) in
    header ^ u32 (Journal.crc32 header) ^ payload
  in
  let named tag name = tag ^ u32 (String.length name) ^ name in
  let put name s = frame (named "P" name ^ Structure_io.to_string s) in
  write_file (Filename.concat dir "snapshot.fmtk")
    (put "a" (Gen.cycle 5) ^ put "b" (Gen.linear_order 4));
  write_file (Filename.concat dir "journal.fmtk")
    (put "c" (Gen.grid 2 3) ^ frame (named "D" "a") ^ put "b" (Gen.cycle 6));
  let st, r = open_dir dir in
  checki "snapshot loaded" 2 r.Store.snapshot_records;
  checki "journal replayed" 3 r.Store.journal_records;
  checkb "acked state" true
    (print_all st
    = [
        ("b", Structure_io.to_string (Gen.cycle 6));
        ("c", Structure_io.to_string (Gen.grid 2 3));
      ]);
  (* Updates append to the unstamped journal... *)
  (match Store.update st ~name:"b" ~rel:"E" [| 0; 3 |] ~add:true with
  | Ok (_, true, _) -> ()
  | _ -> Alcotest.fail "update refused");
  let live = print_all st in
  Store.close st;
  let st, _ = open_dir dir in
  checkb "reopened with the update" true (print_all st = live);
  (* ...which a crash between snapshot and reset leaves stale. *)
  let jpath = Filename.concat dir "journal.fmtk" in
  let before = read_file jpath in
  (match Store.compact st with Ok () -> () | Error e -> Alcotest.fail e);
  Store.close st;
  write_file jpath before;
  let st, r = open_dir dir in
  checki "stale unstamped journal discarded" 0 r.Store.journal_records;
  checkb "state intact" true (print_all st = live);
  Store.close st

(* ---------- query cache ---------- *)

let parse qc s text =
  match Qcache.formula qc (Structure.signature s) text with
  | Ok f -> f
  | Error e -> Alcotest.fail e

let test_qcache_tiers () =
  let qc = Qcache.create ~capacity:8 () in
  let c6 = Gen.cycle 6 in
  let sg = Structure.signature c6 in
  (* Parse tier: same text parses once, bad text is a cached Error. *)
  (match Qcache.formula qc sg "exists x. exists y. E(x,y)" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Qcache.formula qc sg "exists x. (" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad formula accepted");
  (* Validation: relations must exist in the signature with the right
     arity. *)
  (match Qcache.formula qc sg "exists x. R(x)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown relation accepted");
  (match Qcache.formula qc sg "exists x. E(x)" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "wrong arity accepted");
  (* Compiled entries: second probe with the same (name, text, structure)
     hits; rebinding the name invalidates. *)
  let text = "exists x. exists y. E(x,y)" in
  let phi = parse qc c6 text in
  let run s = Qcache.with_compiled qc ~sname:"c" s text phi (fun _ -> ()) in
  run c6;
  checki "first probe misses" 0 (Qcache.hits qc);
  run c6;
  checki "second probe hits" 1 (Qcache.hits qc);
  (* A different structure under the same name must not reuse the old
     closure (compiled closures capture the structure's indexes). *)
  Qcache.invalidate qc ~sname:"c";
  let c7 = Gen.cycle 7 in
  let seen = ref (-1) in
  Qcache.with_compiled qc ~sname:"c" c7 text phi (fun _ -> seen := Structure.size c7);
  checki "rebind recompiles against the new structure" 7 !seen;
  checkb "rebind was a miss" true (Qcache.misses qc >= 2)

(* Plan entries apply store deltas strictly in the store's commit order
   (the sequence number [Store.update] assigns under its mutex).
   Propagation itself runs outside that critical section, so this drives
   the cache by hand with reordered, duplicate, and gapped sequences:
   in-order deltas maintain the materialization, anything else must
   either be a no-op (already reflected) or evict the entry — a hit must
   never serve counts that diverge from the live structure. *)
let test_qcache_delta_ordering () =
  let st = Store.create () in
  let qc = Qcache.create ~capacity:8 () in
  checkb "seed" true (Store.put st ~name:"g" (Gen.cycle 4) = Ok ());
  let text = "E(x,y)" in
  let phi = parse qc (Gen.cycle 4) text in
  let count () =
    let s, seq =
      match Store.get_seq st "g" with
      | Some p -> p
      | None -> Alcotest.fail "binding vanished"
    in
    match
      Qcache.with_result qc ~sname:"g" ~seq s text phi (fun _ rel ->
          Fmtk_db.Relation.cardinality rel)
    with
    | Ok n -> n
    | Error e -> Alcotest.fail e
  in
  let update tup add =
    match Store.update st ~name:"g" ~rel:"E" tup ~add with
    | Ok (s', true, seq) -> (s', seq)
    | _ -> Alcotest.fail "update refused"
  in
  (* Build the materialization, then maintain it through one in-order
     delta: the second eval must hit and see the inserted edge. *)
  checki "initial materialization" 4 (count ());
  let s2, seq2 = update [| 0; 2 |] true in
  Qcache.apply_update qc ~sname:"g" ~seq:seq2 s2 ~rel:"E" [| 0; 2 |] ~add:true;
  checki "in-order delta maintained" 5 (count ());
  checki "maintained one delta" 1 (Qcache.maintained qc);
  checki "maintained entry hits" 1 (Qcache.hits ~kind:`Plan qc);
  (* Two further commits whose propagations arrive reversed: the gapped
     sequence must evict the entry (applying it would skip the middle
     delta), the late one must find nothing, and the next eval rebuilds
     from the live structure. *)
  let _s3, seq3 = update [| 1; 3 |] true in
  let s4, seq4 = update [| 2; 0 |] true in
  Qcache.apply_update qc ~sname:"g" ~seq:seq4 s4 ~rel:"E" [| 2; 0 |] ~add:true;
  Qcache.apply_update qc ~sname:"g" ~seq:seq3 s4 ~rel:"E" [| 1; 3 |] ~add:true;
  let misses_before = Qcache.misses ~kind:`Plan qc in
  checki "reordered deltas evict, rebuild is exact" 7 (count ());
  checki "rebuild was a miss" (misses_before + 1) (Qcache.misses ~kind:`Plan qc);
  (* A duplicate of an already-reflected delta must be skipped, not
     double-applied: the maintained count stays exact. *)
  Qcache.apply_update qc ~sname:"g" ~seq:seq3 s4 ~rel:"E" [| 1; 3 |] ~add:true;
  checki "stale delta is a no-op" 7 (count ());
  checki "stale delta not counted as maintained" 1 (Qcache.maintained qc)

(* At capacity a miss evicts one entry, the least recently used, and
   every other entry keeps hitting. *)
let test_qcache_eviction () =
  let qc = Qcache.create ~capacity:3 () in
  let c6 = Gen.cycle 6 in
  let probe text =
    let hits = Qcache.hits qc in
    Qcache.with_compiled qc ~sname:"c" c6 text (parse qc c6 text) ignore;
    Qcache.hits qc > hits
  in
  let texts = [ "E(x,y)"; "E(y,x)"; "exists y. E(x,y)"; "exists x. E(x,y)" ] in
  List.iter (fun text -> checkb ("cold " ^ text) false (probe text)) texts;
  List.iter
    (fun text -> checkb ("kept " ^ text) true (probe text))
    (List.tl texts);
  checkb "the least recently used entry was the victim" false
    (probe (List.hd texts))

(* One (name, text) asked on both paths, then updated: the plan is
   maintained in place, the compiled closure is dropped and recompiled
   against the new structure. *)
let test_qcache_kinds_under_update () =
  let st = Store.create () in
  let qc = Qcache.create () in
  checkb "seed" true (Store.put st ~name:"g" (Gen.cycle 4) = Ok ());
  let text = "E(x,y)" in
  let phi = parse qc (Gen.cycle 4) text in
  let both () =
    let s, seq = Option.get (Store.get_seq st "g") in
    let compiled =
      Qcache.with_compiled qc ~sname:"g" s text phi (fun c ->
          Fmtk_structure.Tuple.Set.cardinal (Fmtk_eval.Compiled.definable_relation_of c))
    in
    match
      Qcache.with_result qc ~sname:"g" ~seq s text phi (fun _ rel ->
          Fmtk_db.Relation.cardinality rel)
    with
    | Ok planned -> (compiled, planned)
    | Error e -> Alcotest.fail e
  in
  checkb "cold answers" true (both () = (4, 4));
  checki "one miss per kind" 2 (Qcache.misses qc);
  let s', seq =
    match Store.update st ~name:"g" ~rel:"E" [| 0; 2 |] ~add:true with
    | Ok (s', true, seq) -> (s', seq)
    | _ -> Alcotest.fail "update refused"
  in
  Qcache.apply_update qc ~sname:"g" ~seq s' ~rel:"E" [| 0; 2 |] ~add:true;
  checki "plan maintained" 1 (Qcache.maintained qc);
  checkb "both kinds see the update" true (both () = (5, 5));
  checki "plan hit" 1 (Qcache.hits ~kind:`Plan qc);
  checki "closure recompiled" 2 (Qcache.misses ~kind:`Compiled qc);
  checki "no compiled hit" 0 (Qcache.hits ~kind:`Compiled qc)

let test_qcache_invalidate () =
  let st = Store.create () in
  let qc = Qcache.create () in
  List.iter
    (fun name -> checkb "seed" true (Store.put st ~name (Gen.cycle 4) = Ok ()))
    [ "g"; "h" ];
  let text = "E(x,y)" in
  let phi = parse qc (Gen.cycle 4) text in
  let probe name =
    let s, seq = Option.get (Store.get_seq st name) in
    Qcache.with_compiled qc ~sname:name s text phi ignore;
    ignore (Qcache.with_result qc ~sname:name ~seq s text phi (fun _ _ -> ()))
  in
  probe "g";
  probe "h";
  Qcache.invalidate qc ~sname:"g";
  probe "g";
  checki "both kinds under g dropped" 6 (Qcache.misses qc);
  probe "h";
  checki "entries under h kept" 2 (Qcache.hits qc)

(* ---------- end-to-end ---------- *)

(* A tiny blocking client for the line protocol. *)
module Client = struct
  type t = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

  let connect port =
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
    { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

  let request t line =
    output_string t.oc line;
    output_char t.oc '\n';
    flush t.oc;
    input_line t.ic

  let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()
end

let with_server ?(configure = fun c -> c) ?preload f =
  let cfg =
    configure
      {
        (Server.default_config (Server.Tcp ("127.0.0.1", 0))) with
        Server.workers = 2;
        log = None;
      }
  in
  let srv =
    match Server.create ?preload cfg with
    | Ok s -> s
    | Error e -> Alcotest.failf "server create failed: %s" e
  in
  let runner = Thread.create Server.run srv in
  let port = match Server.port srv with Some p -> p | None -> Alcotest.fail "no port" in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Thread.join runner)
    (fun () -> f srv port)

let field name resp =
  match Json.parse resp with
  | Ok v -> Json.member name v
  | Error e -> Alcotest.failf "unparseable response %S: %s" resp e

let status resp =
  match field "status" resp with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "response without status: %S" resp

let code resp =
  match field "code" resp with Some (Json.Str s) -> Some s | _ -> None

let test_end_to_end () =
  with_server ~preload:[ ("c6", "cycle:6") ] @@ fun srv port ->
  let c = Client.connect port in
  checks "ping" "ok" (status (Client.request c {|{"op":"ping","id":1}|}));
  checks "load" "ok"
    (status (Client.request c {|{"op":"load","id":2,"name":"c7","spec":"cycle:7"}|}));
  (* Sentence evaluation, repeated: second time must hit the cache. *)
  let q = {|{"op":"eval","id":3,"structure":"c6","formula":"forall x. exists y. E(x,y)"}|} in
  let r = Client.request c q in
  checks "eval" "ok" (status r);
  (match field "result" r with
  | Some (Json.Obj fields) ->
      checkb "eval value" true (List.assoc_opt "value" fields = Some (Json.Bool true))
  | _ -> Alcotest.fail "eval result shape");
  ignore (Client.request c q);
  let s = Server.stats srv in
  checkb "cache hit recorded" true (s.Server.cache_hits > 0);
  (* Free-variable query returns bindings. *)
  let r = Client.request c {|{"op":"eval","id":4,"structure":"c6","formula":"E(x,y)"}|} in
  (match field "result" r with
  | Some (Json.Obj fields) ->
      checkb "answer count" true (List.assoc_opt "count" fields = Some (Json.Num 6.))
  | _ -> Alcotest.fail "answers shape");
  (* Games and the decide ladder. *)
  let r = Client.request c {|{"op":"game","id":5,"left":"c6","right":"c7","rounds":3}|} in
  checks "game" "ok" (status r);
  let r = Client.request c {|{"op":"decide","id":6,"left":"c6","right":"c7","rank":3}|} in
  checkb "decide answers" true (status r = "ok" || status r = "degraded");
  (* The failure surface: each bad input gets a structured error and the
     connection keeps serving. *)
  let expect_error name line want =
    let r = Client.request c line in
    checks (name ^ " status") "error" (status r);
    checks (name ^ " code") want
      (match code r with Some cd -> cd | None -> "<none>")
  in
  expect_error "bad json" "{nope" "bad-json";
  expect_error "bad request" {|{"op":"warp"}|} "bad-request";
  expect_error "unknown structure"
    {|{"op":"eval","id":8,"structure":"ghost","formula":"E(x,y)"}|}
    "unknown-structure";
  expect_error "parse error"
    {|{"op":"eval","id":9,"structure":"c6","formula":"exists x. ("}|}
    "parse-error";
  expect_error "over-limit deadline"
    {|{"op":"decide","id":10,"left":"c6","right":"c7","rank":3,"timeout":9999}|}
    "deadline-over-limit";
  expect_error "bad load spec"
    {|{"op":"load","id":11,"name":"x","spec":"cycle:-3"}|}
    "parse-error";
  expect_error "edge probability outside [0,1]"
    {|{"op":"load","id":14,"name":"x","spec":"random:10:1.5:1"}|}
    "parse-error";
  (* Tiny fuel: the solver gives up, the server answers and survives. *)
  let r =
    Client.request c
      {|{"op":"game","id":12,"left":"c6","right":"c7","rounds":9,"fuel":1}|}
  in
  checks "starved game" "error" (status r);
  checks "starved code" "gave-up" (match code r with Some cd -> cd | None -> "<none>");
  (* Still alive after the whole gauntlet. *)
  checks "still serving" "ok" (status (Client.request c {|{"op":"ping","id":13}|}));
  let s = Server.stats srv in
  checkb "stats counted errors" true (s.Server.completed_error >= 7);
  checki "stats in-flight drained" 0 s.Server.in_flight;
  Client.close c

(* Games between structures of different signatures compare them over
   both signatures, so [decide] and [game] give one verdict in either
   order; a relation at two arities is a bad request, not a crash. *)
let test_mixed_signatures () =
  with_server ~preload:[ ("s3", "set:3"); ("c3", "cycle:3") ] @@ fun _ port ->
  let c = Client.connect port in
  let result_field name resp =
    match field "result" resp with
    | Some (Json.Obj fields) -> List.assoc_opt name fields
    | _ -> Alcotest.failf "response without result object: %S" resp
  in
  List.iter
    (fun (left, right) ->
      let tag = left ^ "/" ^ right in
      let r =
        Client.request c
          (Printf.sprintf
             {|{"op":"decide","id":1,"left":"%s","right":"%s","rank":2}|} left
             right)
      in
      checks (tag ^ " decide status") "ok" (status r);
      checkb (tag ^ " decide verdict") true
        (result_field "verdict" r = Some (Json.Str "distinguished"));
      List.iter
        (fun extra ->
          let r =
            Client.request c
              (Printf.sprintf
                 {|{"op":"game","id":2,"left":"%s","right":"%s","rounds":2%s}|}
                 left right extra)
          in
          checks (tag ^ extra ^ " game status") "ok" (status r);
          checkb (tag ^ extra ^ " game verdict") true
            (result_field "equivalent" r = Some (Json.Bool false)))
        [ ""; {|,"pebbles":2|}; {|,"pebbles":2,"counting":true|} ])
    [ ("s3", "c3"); ("c3", "s3") ];
  checks "load ternary E" "ok"
    (status
       (Client.request c
          {|{"op":"load","id":3,"name":"e3","text":"domain 3\nrel E/3 = (0,1,2)\n"}|}));
  List.iter
    (fun line ->
      let r = Client.request c line in
      checks "arity clash status" "error" (status r);
      checks "arity clash code" "bad-request"
        (match code r with Some cd -> cd | None -> "<none>"))
    [
      {|{"op":"decide","id":4,"left":"c3","right":"e3","rank":1}|};
      {|{"op":"game","id":5,"left":"e3","right":"c3","rounds":1}|};
    ];
  Client.close c

(* Single-tuple mutations through the wire: the RA engine's maintained
   plans must advance by delta propagation (a cache hit, not a rebuild)
   and keep agreeing with the compiled engine re-run from scratch. *)
let test_update_and_ra_eval () =
  with_server ~preload:[ ("g", "cycle:5") ] @@ fun srv port ->
  let c = Client.connect port in
  let result_field name resp =
    match field "result" resp with
    | Some (Json.Obj fields) -> List.assoc_opt name fields
    | _ -> Alcotest.failf "response without result object: %S" resp
  in
  let ra_q =
    {|{"op":"eval","id":1,"structure":"g","formula":"E(x,y)","ra":true}|}
  in
  let r = Client.request c ra_q in
  checks "ra eval" "ok" (status r);
  checkb "ra engine tag" true (result_field "engine" r = Some (Json.Str "ra"));
  checkb "ra count" true (result_field "count" r = Some (Json.Num 5.));
  (* Insert a chord. *)
  let r =
    Client.request c
      {|{"op":"update","id":2,"structure":"g","rel":"E","tuple":[0,2],"action":"insert"}|}
  in
  checks "update" "ok" (status r);
  checkb "update changed" true (result_field "changed" r = Some (Json.Bool true));
  let r = Client.request c ra_q in
  checkb "ra count after insert" true (result_field "count" r = Some (Json.Num 6.));
  let s = Server.stats srv in
  checkb "maintained plan hit, not rebuilt" true (s.Server.plan_hits >= 1);
  checkb "delta propagation recorded" true (s.Server.plans_maintained >= 1);
  (* The compiled engine, re-run from scratch, agrees. *)
  let r =
    Client.request c {|{"op":"eval","id":3,"structure":"g","formula":"E(x,y)"}|}
  in
  checkb "compiled count agrees" true (result_field "count" r = Some (Json.Num 6.));
  (* Inserting a present tuple is an acknowledged no-op. *)
  let r =
    Client.request c
      {|{"op":"update","id":4,"structure":"g","rel":"E","tuple":[0,2],"action":"insert"}|}
  in
  checks "idempotent insert" "ok" (status r);
  checkb "no-op flagged" true (result_field "changed" r = Some (Json.Bool false));
  (* Delete restores the original answer set. *)
  let r =
    Client.request c
      {|{"op":"update","id":5,"structure":"g","rel":"E","tuple":[0,2],"action":"delete"}|}
  in
  checks "delete" "ok" (status r);
  let r = Client.request c ra_q in
  checkb "ra count after delete" true (result_field "count" r = Some (Json.Num 5.));
  (* A sentence through the RA engine. *)
  let r =
    Client.request c
      {|{"op":"eval","id":6,"structure":"g","formula":"exists x. E(x,x)","ra":true}|}
  in
  checkb "ra sentence" true (result_field "value" r = Some (Json.Bool false));
  (* Validation surface: structured errors, connection keeps serving. *)
  let expect_error name line want =
    let r = Client.request c line in
    checks (name ^ " status") "error" (status r);
    checks (name ^ " code") want
      (match code r with Some cd -> cd | None -> "<none>")
  in
  expect_error "unknown structure"
    {|{"op":"update","id":7,"structure":"ghost","rel":"E","tuple":[0,1],"action":"insert"}|}
    "unknown-structure";
  expect_error "unknown relation"
    {|{"op":"update","id":8,"structure":"g","rel":"R","tuple":[0,1],"action":"insert"}|}
    "bad-update";
  expect_error "arity mismatch"
    {|{"op":"update","id":9,"structure":"g","rel":"E","tuple":[0,1,2],"action":"insert"}|}
    "bad-update";
  expect_error "out of domain"
    {|{"op":"update","id":10,"structure":"g","rel":"E","tuple":[0,99],"action":"insert"}|}
    "bad-update";
  expect_error "bad action"
    {|{"op":"update","id":11,"structure":"g","rel":"E","tuple":[0,1],"action":"upsert"}|}
    "bad-request";
  expect_error "bad tuple"
    {|{"op":"update","id":12,"structure":"g","rel":"E","tuple":[0,"x"],"action":"insert"}|}
    "bad-request";
  checks "still serving" "ok" (status (Client.request c {|{"op":"ping","id":13}|}));
  Client.close c

(* A maintained plan answers field for field like the compiled engine —
   the same count, the same 50 smallest tuples, the same [truncated] —
   while updates move tuples into and out of that 50-tuple window. Every
   [ra] eval after the first is a plan hit, and every update is one delta
   propagation. *)
let test_ra_sample_matches_compiled () =
  with_server ~preload:[ ("o", "order:12") ] @@ fun srv port ->
  let c = Client.connect port in
  let result_fields resp =
    match field "result" resp with
    | Some (Json.Obj fields) -> fields
    | _ -> Alcotest.failf "response without result object: %S" resp
  in
  let eval ~ra =
    result_fields
      (Client.request c
         (Printf.sprintf
            {|{"op":"eval","id":1,"structure":"o","formula":"lt(x,y) & lt(y,z)","ra":%b}|}
            ra))
  in
  let hits () = (Server.stats srv).Server.plan_hits in
  let agree label =
    let before = hits () in
    let planned = eval ~ra:true and compiled = eval ~ra:false in
    checkb (label ^ ": engine") true
      (List.assoc_opt "engine" planned = Some (Json.Str "ra"));
    List.iter
      (fun name ->
        checkb
          (Printf.sprintf "%s: %s" label name)
          true
          (List.assoc_opt name planned = List.assoc_opt name compiled
          && List.assoc_opt name planned <> None))
      [ "vars"; "count"; "tuples"; "truncated" ];
    checkb (label ^ ": truncated") true
      (List.assoc_opt "truncated" planned = Some (Json.Bool true));
    hits () - before
  in
  ignore (agree "initial");
  checkb "initial count" true
    (List.assoc_opt "count" (eval ~ra:true) = Some (Json.Num 220.));
  List.iteri
    (fun i (tuple, action) ->
      let r =
        Client.request c
          (Printf.sprintf
             {|{"op":"update","id":2,"structure":"o","rel":"lt","tuple":%s,"action":%S}|}
             tuple action)
      in
      let label = Printf.sprintf "%s %s" action tuple in
      checkb (label ^ ": changed") true
        (List.assoc_opt "changed" (result_fields r) = Some (Json.Bool true));
      checki (label ^ ": maintained") (i + 1)
        (Server.stats srv).Server.plans_maintained;
      checki (label ^ ": plan hit") 1 (agree label))
    [
      ("[0,1]", "delete");
      ("[5,0]", "insert");
      ("[5,0]", "delete");
      ("[0,1]", "insert");
    ];
  Client.close c

(* A structure relation named "adom" is the user's own. The RA engine
   pads with its active-domain table under another name, so an [ra] eval
   answers like the compiled engine, and an update to the user's relation
   reaches only the plans that read it. *)
let test_user_adom_ra () =
  with_server @@ fun _ port ->
  let c = Client.connect port in
  checks "load" "ok"
    (status
       (Client.request c
          {|{"op":"load","id":1,"name":"a","text":"domain 3\nrel E/2 =\nrel adom/1 = (0)\n"}|}));
  let count ~ra formula =
    let r =
      Client.request c
        (Printf.sprintf
           {|{"op":"eval","id":2,"structure":"a","formula":%S,"ra":%b}|}
           formula ra)
    in
    match field "result" r with
    | Some (Json.Obj fields) -> List.assoc_opt "count" fields
    | _ -> Alcotest.failf "response without result object: %S" r
  in
  let agree label =
    List.iter
      (fun phi ->
        let planned = count ~ra:true phi in
        checkb (Printf.sprintf "%s: %s" label phi) true
          (planned <> None && planned = count ~ra:false phi))
      [ "!E(x,x)"; "adom(x)"; "adom(x) & !E(x,y)" ]
  in
  agree "loaded";
  checkb "!E(x,x) holds everywhere" true
    (count ~ra:true "!E(x,x)" = Some (Json.Num 3.));
  checks "update" "ok"
    (status
       (Client.request c
          {|{"op":"update","id":3,"structure":"a","rel":"adom","tuple":[1],"action":"insert"}|}));
  agree "after update";
  checkb "adom(x) grew" true (count ~ra:true "adom(x)" = Some (Json.Num 2.));
  Client.close c

let test_oversized_line () =
  with_server ~configure:(fun c -> { c with Server.max_line = 256 }) @@ fun _ port ->
  let c = Client.connect port in
  let r = Client.request c (Printf.sprintf {|{"op":"ping","pad":"%s"}|} (String.make 400 'x')) in
  checks "oversized code" "oversized"
    (match code r with Some cd -> cd | None -> "<none>");
  checks "next request fine" "ok" (status (Client.request c {|{"op":"ping"}|}));
  Client.close c

let test_admission_shedding () =
  (* max_inflight 0: every pool request is shed, inline ops still work. *)
  with_server ~configure:(fun c -> { c with Server.max_inflight = 0 })
    ~preload:[ ("c6", "cycle:6") ]
  @@ fun srv port ->
  let c = Client.connect port in
  let r = Client.request c {|{"op":"eval","id":1,"structure":"c6","formula":"E(x,y)"}|} in
  checks "shed status" "shed" (status r);
  (match field "retry_after_ms" r with
  | Some (Json.Num ms) -> checkb "retry-after positive" true (ms > 0.)
  | _ -> Alcotest.fail "shed without retry_after_ms");
  checks "ping bypasses admission" "ok" (status (Client.request c {|{"op":"ping"}|}));
  let s = Server.stats srv in
  checkb "shed counted" true (s.Server.shed >= 1);
  Client.close c

let test_fault_injection_no_crash () =
  (* Every 10th-ish request gets an injected budget/worker fault; the
     server must answer every request (error for the faulted ones),
     never crash, and never flip a verdict on the clean ones. *)
  with_server
    ~configure:(fun c -> { c with Server.inject_faults = true; Server.workers = 2 })
    ~preload:[ ("c5", "cycle:5"); ("c6", "cycle:6") ]
  @@ fun srv port ->
  let c = Client.connect port in
  let n = 40 in
  (* Ground truth from the unlimited in-process solver: any definitive
     server answer must agree with it, faults or not. *)
  let truth =
    match Fmtk_games.Ef.solve_verdict ~rounds:3 (Gen.cycle 5) (Gen.cycle 6) with
    | Fmtk_games.Ef.Equivalent, _ -> true
    | Fmtk_games.Ef.Distinguished, _ -> false
    | Fmtk_games.Ef.Gave_up _, _ -> Alcotest.fail "unlimited solver gave up"
  in
  let statuses =
    List.init n (fun i ->
        let line =
          Printf.sprintf
            {|{"op":"game","id":%d,"left":"c5","right":"c6","rounds":3}|} i
        in
        let r = Client.request c line in
        (match (status r, field "result" r) with
        | ("ok" | "degraded"), Some (Json.Obj fields) -> (
            match List.assoc_opt "equivalent" fields with
            | Some (Json.Bool b) ->
                checkb "verdict never flips under faults" truth b
            | _ -> ())
        | _ -> ());
        status r)
  in
  let errors = List.length (List.filter (fun s -> s = "error") statuses) in
  let oks = List.length (List.filter (fun s -> s = "ok") statuses) in
  checkb "some requests were faulted" true (errors >= 3);
  checkb "most requests still answered" true (oks >= n / 2);
  (* The server survived the whole adversarial run. *)
  checks "alive after faults" "ok" (status (Client.request c {|{"op":"ping"}|}));
  let s = Server.stats srv in
  checki "nothing left in flight" 0 s.Server.in_flight;
  Client.close c

let test_graceful_shutdown_drains () =
  let c6 = "c6" in
  with_server ~preload:[ (c6, "cycle:6") ] @@ fun srv port ->
  let client = Client.connect port in
  (* Park a slow-ish request, then request shutdown while it runs. *)
  output_string client.Client.oc
    {|{"op":"decide","id":"slow","left":"c6","right":"c6","rank":3,"timeout":3}|};
  output_char client.Client.oc '\n';
  flush client.Client.oc;
  Thread.delay 0.05;
  Server.shutdown srv;
  (* The in-flight request still gets its one response line during the
     drain (it may be ok, degraded, or a cancelled gave-up — but never
     silence). *)
  (match input_line client.Client.ic with
  | line ->
      checkb "drained response is structured" true
        (match Json.parse line with Ok _ -> true | Error _ -> false)
  | exception End_of_file -> Alcotest.fail "connection dropped mid-drain");
  Client.close client

let test_pooled_workers_drain_and_park () =
  (* The server's worker domains come from the process-wide runtime
     pool. Two consecutive server lifecycles must answer correctly,
     drain cleanly, and — the regression this test exists for — the
     second server must reuse the domains the first one parked instead
     of spawning fresh ones. *)
  let module Pool = Fmtk_runtime.Pool in
  let pool = Pool.shared () in
  let run_once () =
    with_server ~preload:[ ("c6", "cycle:6"); ("c7", "cycle:7") ]
    @@ fun _srv port ->
    let c = Client.connect port in
    checks "pooled server answers" "ok"
      (status
         (Client.request c
            {|{"op":"game","id":1,"left":"c6","right":"c7","rounds":3}|}));
    Client.close c
  in
  run_once ();
  (* The first lifecycle has parked its workers back into the pool
     (this is the drain regression: a leaked or unjoined worker never
     parks), and an immediate spawn reuses one instead of creating a
     fresh domain. Joining the run only proves the jobs finished — the
     domains park a moment later, so give them a few naps. *)
  let rec await_park n =
    Pool.parked_count pool >= 1 || (n > 0 && (Pool.nap (); await_park (n - 1)))
  in
  checkb "workers parked after drain" true (await_park 100);
  let spawned_before = Pool.spawned_total pool in
  Pool.join (Pool.spawn pool (fun () -> ()));
  checkb "drained worker domain is reusable" true
    (Pool.spawned_total pool = spawned_before);
  (* A second lifecycle in the same process goes through the pool and
     drains just as cleanly. *)
  let dispatched_before = Pool.dispatched pool in
  run_once ();
  checkb "second server went through the pool" true
    (Pool.dispatched pool >= dispatched_before + 2)

let test_drop_end_to_end () =
  with_server ~preload:[ ("c6", "cycle:6") ] @@ fun _srv port ->
  let c = Client.connect port in
  let r = Client.request c {|{"op":"drop","id":1,"name":"c6"}|} in
  checks "drop acked" "ok" (status r);
  (match field "result" r with
  | Some (Json.Obj fields) ->
      checkb "drop result" true
        (List.assoc_opt "dropped" fields = Some (Json.Bool true))
  | _ -> Alcotest.fail "drop result shape");
  let r =
    Client.request c {|{"op":"eval","id":2,"structure":"c6","formula":"E(x,y)"}|}
  in
  checks "dropped structure unknown" "unknown-structure"
    (match code r with Some cd -> cd | None -> "<none>");
  let r = Client.request c {|{"op":"drop","id":3,"name":"c6"}|} in
  checks "double drop" "unknown-structure"
    (match code r with Some cd -> cd | None -> "<none>");
  (* Reloading the name must not serve stale compiled queries: the
     cache is invalidated on drop, so the count tracks the new value. *)
  ignore (Client.request c {|{"op":"load","id":4,"name":"c6","spec":"cycle:7"}|});
  let r =
    Client.request c {|{"op":"eval","id":5,"structure":"c6","formula":"E(x,y)"}|}
  in
  (match field "result" r with
  | Some (Json.Obj fields) ->
      checkb "fresh structure served" true
        (List.assoc_opt "count" fields = Some (Json.Num 7.))
  | _ -> Alcotest.fail "post-reload eval shape");
  Client.close c

let test_durable_server_restart () =
  with_tmp_dir @@ fun dir ->
  let configure c = { c with Server.data_dir = Some dir } in
  with_server ~configure (fun _srv port ->
      let c = Client.connect port in
      checks "load 1" "ok"
        (status
           (Client.request c {|{"op":"load","id":1,"name":"keep","spec":"cycle:6"}|}));
      checks "load 2" "ok"
        (status
           (Client.request c {|{"op":"load","id":2,"name":"gone","spec":"cycle:7"}|}));
      checks "drop" "ok"
        (status (Client.request c {|{"op":"drop","id":3,"name":"gone"}|}));
      Client.close c);
  (* Same data dir, new server lifecycle: recovery happens in create,
     before the socket binds. *)
  with_server ~configure (fun srv port ->
      let c = Client.connect port in
      let r = Client.request c {|{"op":"list","id":1}|} in
      (match field "result" r with
      | Some (Json.Obj fields) -> (
          match List.assoc_opt "structures" fields with
          | Some (Json.List [ Json.Obj entry ]) ->
              checkb "recovered name" true
                (List.assoc_opt "name" entry = Some (Json.Str "keep"))
          | _ -> Alcotest.fail "expected exactly the surviving structure")
      | _ -> Alcotest.fail "list shape");
      let s = Server.stats srv in
      (match s.Server.durability with
      | None -> Alcotest.fail "durable server without durability stats"
      | Some d ->
          checki "replayed the journal" 3 d.Store.recovered.Store.journal_records;
          checkb "stats name the dir" true (d.Store.data_dir = dir));
      (* The stats op surfaces the same numbers on the wire. *)
      let r = Client.request c {|{"op":"stats","id":2}|} in
      (match field "result" r with
      | Some (Json.Obj fields) ->
          checkb "wire stats carry recovery" true
            (List.assoc_opt "recovered_journal" fields = Some (Json.Num 3.))
      | _ -> Alcotest.fail "stats shape");
      Client.close c)

(* ---------- the kill -9 crash harness ---------- *)

(* Black-box torture: a real [fmtk serve --data-dir] process, a client
   hammering acknowledged loads, drops and single-tuple updates — one
   of them on a CSR-backed graph — SIGKILL at a random point (often
   with a request in flight), restart, verify. The server runs with the
   smallest snapshot threshold, so cycles cross compactions. The
   invariants checked each cycle, accumulated across all cycles:

   - recovery never refuses (a kill can only tear the journal tail);
   - every acknowledged mutation survives, with the structure's
     canonical print byte-identical to the reference: what was loaded,
     with every acked update applied through [Structure.with_rel];
   - nothing else is visible: a name the harness never acked is either
     absent or holds exactly the value of the one in-flight request,
     and an in-flight update lands whole or not at all — a torn
     partial write must never surface as data.

   FMTK_CRASH_CYCLES picks the cycle count (default 5; CI runs 50). *)

let crash_cycles () =
  match Option.bind (Sys.getenv_opt "FMTK_CRASH_CYCLES") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 5

let cli_exe () =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/fmtk_cli.exe"

let spawn_server ~sock ~dir =
  let exe = cli_exe () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe
      [|
        exe; "serve"; "--socket"; sock; "--data-dir"; dir; "--sync"; "always";
        "--snapshot-threshold"; "4096"; "--workers"; "1"; "--quiet";
      |]
      null null Unix.stderr
  in
  Unix.close null;
  pid

let connect_unix sock =
  let deadline = Unix.gettimeofday () +. 10. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () ->
        {
          Client.fd;
          ic = Unix.in_channel_of_descr fd;
          oc = Unix.out_channel_of_descr fd;
        }
    | exception Unix.Unix_error _ ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        if Unix.gettimeofday () > deadline then
          Alcotest.fail "server did not come up"
        else begin
          Thread.delay 0.02;
          go ()
        end
  in
  go ()

let send_no_wait c line =
  output_string c.Client.oc line;
  output_char c.Client.oc '\n';
  flush c.Client.oc

let test_crash_harness () =
  with_tmp_dir @@ fun root ->
  let dir = Filename.concat root "data" in
  let sock = Filename.concat root "s.sock" in
  let rng = Random.State.make [| 0xD1CE; crash_cycles () |] in
  (* Ground truth. [exact]: names whose mutations were acked — value is
     the reference structure the recovered one must print like.
     [absent]: names whose drop was acked. [limbo]: the at-most-one
     in-flight mutation at kill time, with the values it may leave. *)
  let exact : (string, Structure.t) Hashtbl.t = Hashtbl.create 64 in
  let absent : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let limbo = ref None in
  let print = Structure_io.to_string in
  let gen_structure () =
    match Random.State.int rng 3 with
    | 0 -> Gen.cycle (3 + Random.State.int rng 40)
    | 1 -> Gen.random_graph ~rng (2 + Random.State.int rng 20) 0.3
    | _ -> Gen.linear_order (2 + Random.State.int rng 10)
  in
  let load_line name s =
    Json.to_string
      (Json.Obj
         [
           ("op", Json.Str "load");
           ("name", Json.Str name);
           ("text", Json.Str (print s));
         ])
  in
  let drop_line name =
    Json.to_string (Json.Obj [ ("op", Json.Str "drop"); ("name", Json.Str name) ])
  in
  (* A random single-tuple edit of an acked name: the request line, and
     the reference value after it, rebuilt whole through
     [Structure.with_rel] rather than edited. *)
  let random_update name =
    let s = Hashtbl.find exact name in
    let rel, arity =
      let rels = Signature.rels (Structure.signature s) in
      List.nth rels (Random.State.int rng (List.length rels))
    in
    let tup =
      Array.init arity (fun _ -> Random.State.int rng (Structure.size s))
    in
    let add =
      if Random.State.bool rng then not (Structure.mem s rel tup)
      else Random.State.bool rng
    in
    let cur = Structure.rel s rel in
    let next =
      Structure.with_rel s rel arity
        (if add then Fmtk_structure.Tuple.Set.add tup cur
         else Fmtk_structure.Tuple.Set.remove tup cur)
    in
    let line =
      Json.to_string
        (Json.Obj
           [
             ("op", Json.Str "update");
             ("structure", Json.Str name);
             ("rel", Json.Str rel);
             ("tuple", Json.List (Array.to_list (Array.map Json.of_int tup)));
             ("action", Json.Str (if add then "insert" else "delete"));
           ])
    in
    (line, next)
  in
  let random_acked () =
    let keys = Hashtbl.fold (fun k _ acc -> k :: acc) exact [] in
    match keys with
    | [] -> None
    | ks -> Some (List.nth ks (Random.State.int rng (List.length ks)))
  in
  (* The CSR-backed graph: over the CSR threshold, reloaded whenever a
     drop took it. *)
  let big = "big" and big_spec = "random:100:0.5:7" in
  let cycles = crash_cycles () in
  for cycle = 1 to cycles do
    let pid = spawn_server ~sock ~dir in
    let c = connect_unix sock in
    (* The restarted server must already serve every exact name. *)
    let list_resp = Client.request c {|{"op":"list"}|} in
    let served =
      match field "result" list_resp with
      | Some (Json.Obj fields) -> (
          match List.assoc_opt "structures" fields with
          | Some (Json.List l) ->
              List.filter_map
                (function
                  | Json.Obj e -> (
                      match List.assoc_opt "name" e with
                      | Some (Json.Str n) -> Some n
                      | _ -> None)
                  | _ -> None)
                l
          | _ -> [])
      | _ -> []
    in
    Hashtbl.iter
      (fun name _ ->
        if not (List.mem name served) then
          Alcotest.failf "cycle %d: acked %s missing from restarted server"
            cycle name)
      exact;
    let acked what name r =
      if status r <> "ok" then
        Alcotest.failf "cycle %d: %s %s failed: %s" cycle what name r
    in
    if not (Hashtbl.mem exact big) then begin
      let s = Fmtk.Spec.parse_exn big_spec in
      checkb "big graph is csr-backed" true (Structure.rel_backend s "E" = `Csr);
      acked "load" big
        (Client.request c
           (Json.to_string
              (Json.Obj
                 [
                   ("op", Json.Str "load");
                   ("name", Json.Str big);
                   ("spec", Json.Str big_spec);
                 ])));
      Hashtbl.replace exact big s;
      Hashtbl.remove absent big
    end;
    (* Burst of acked mutations, then SIGKILL — half the time with one
       request still in flight. *)
    let burst = 3 + Random.State.int rng 5 in
    for i = 1 to burst do
      let roll = Random.State.float rng 1.0 in
      match random_acked () with
      | Some name when roll < 0.2 ->
          acked "drop" name (Client.request c (drop_line name));
          Hashtbl.remove exact name;
          Hashtbl.replace absent name ()
      | Some name when roll < 0.6 ->
          let name = if Hashtbl.mem exact big && roll < 0.4 then big else name in
          let line, next = random_update name in
          acked "update" name (Client.request c line);
          Hashtbl.replace exact name next
      | _ ->
          let name = Printf.sprintf "s%d_%d" cycle i in
          let s = gen_structure () in
          acked "load" name (Client.request c (load_line name s));
          Hashtbl.replace exact name s;
          Hashtbl.remove absent name
    done;
    (if Random.State.bool rng then
       (* Kill with a mutation in flight: acked-or-invisible is the
          contract under test. *)
       let roll = Random.State.float rng 1.0 in
       match random_acked () with
       | Some name when roll < 0.3 ->
           send_no_wait c (drop_line name);
           limbo := Some (name, `Dropped (Hashtbl.find exact name))
       | Some name when roll < 0.7 ->
           let line, next = random_update name in
           send_no_wait c line;
           limbo := Some (name, `Updated (Hashtbl.find exact name, next))
       | _ ->
           let name = Printf.sprintf "s%d_limbo" cycle in
           let s = gen_structure () in
           send_no_wait c (load_line name s);
           limbo := Some (name, `Loaded s));
    Unix.kill pid Sys.sigkill;
    ignore (Unix.waitpid [] pid);
    Client.close c;
    (* In-process verification against the raw data dir: recovery must
       succeed and reconstruct exactly the acked state (mod limbo). *)
    let st =
      match Store.open_durable ~dir () with
      | Ok (st, _) -> st
      | Error e -> Alcotest.failf "cycle %d: recovery refused: %s" cycle e
    in
    let limbo_name = match !limbo with Some (l, _) -> Some l | None -> None in
    Hashtbl.iter
      (fun name expected ->
        (* The limbo name's fate is resolved separately below. *)
        if Some name <> limbo_name then
          match Store.get st name with
          | None -> Alcotest.failf "cycle %d: acked %s lost" cycle name
          | Some s ->
              if print s <> print expected then
                Alcotest.failf "cycle %d: acked %s recovered differently" cycle
                  name)
      exact;
    Hashtbl.iter
      (fun name () ->
        if Some name <> limbo_name && Store.get st name <> None then
          Alcotest.failf "cycle %d: acked drop of %s resurfaced" cycle name)
      absent;
    (* Anything else visible must be the single in-flight mutation,
       recovered whole — and its observed state becomes ground truth. *)
    List.iter
      (fun (name, _) ->
        if (not (Hashtbl.mem exact name)) && Some name <> limbo_name then
          Alcotest.failf "cycle %d: unacked name %s surfaced" cycle name)
      (Store.names st);
    let recovered_as name candidates =
      match Store.get st name with
      | None -> None
      | Some s -> (
          match List.find_opt (fun c -> print c = print s) candidates with
          | Some c -> Some c
          | None ->
              Alcotest.failf "cycle %d: in-flight mutation of %s surfaced torn"
                cycle name)
    in
    (match !limbo with
    | None -> ()
    | Some (name, `Loaded s) -> (
        match recovered_as name [ s ] with
        | None -> () (* the in-flight load never landed — fine *)
        | Some s -> Hashtbl.replace exact name s)
    | Some (name, `Dropped old) -> (
        match recovered_as name [ old ] with
        | None ->
            Hashtbl.remove exact name;
            Hashtbl.replace absent name ()
        | Some _ -> ())
    | Some (name, `Updated (old, next)) -> (
        match recovered_as name [ next; old ] with
        | None -> Alcotest.failf "cycle %d: in-flight update lost %s" cycle name
        | Some s -> Hashtbl.replace exact name s));
    limbo := None;
    Store.close st
  done;
  checkb "harness accumulated state" true (Hashtbl.length exact > 0)

let () =
  Alcotest.run "fmtk_server"
    [
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "totality" `Quick test_json_totality;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "byte mutants stay total" `Quick
            test_protocol_mutants;
        ] );
      ( "store",
        [
          Alcotest.test_case "bounds" `Quick test_store;
          Alcotest.test_case "single-tuple update" `Quick test_store_update;
        ] );
      ( "journal",
        [
          Alcotest.test_case "round-trip" `Quick test_journal_roundtrip;
          Alcotest.test_case "structure forms" `Quick
            test_journal_structure_forms;
          Alcotest.test_case "truncation corpus" `Quick
            test_journal_truncation_corpus;
          Alcotest.test_case "flipped-byte corpus" `Quick
            test_journal_flip_corpus;
          QCheck_alcotest.to_alcotest prop_journal_records_roundtrip;
          QCheck_alcotest.to_alcotest prop_journal_structures_roundtrip;
          QCheck_alcotest.to_alcotest prop_journal_decoder_total;
        ] );
      ( "durable",
        [
          Alcotest.test_case "recovery" `Quick test_store_recovery;
          Alcotest.test_case "torn write" `Quick test_store_torn_write;
          Alcotest.test_case "crash points" `Quick test_store_crash_points;
          Alcotest.test_case "update crash points" `Quick
            test_store_update_crash_points;
          Alcotest.test_case "compaction" `Quick test_store_compaction;
          Alcotest.test_case "corrupt refusal" `Quick
            test_store_corrupt_refusal;
          Alcotest.test_case "update replay refusals" `Quick
            test_store_update_refusals;
          Alcotest.test_case "random histories recover" `Quick
            test_store_random_histories;
          Alcotest.test_case "pre-generation data dir" `Quick
            test_store_pre_generation_data_dir;
        ] );
      ( "qcache",
        [
          Alcotest.test_case "tiers" `Quick test_qcache_tiers;
          Alcotest.test_case "delta ordering" `Quick test_qcache_delta_ordering;
          Alcotest.test_case "single-victim eviction" `Quick test_qcache_eviction;
          Alcotest.test_case "both kinds under update" `Quick
            test_qcache_kinds_under_update;
          Alcotest.test_case "invalidate drops both kinds" `Quick
            test_qcache_invalidate;
        ] );
      ( "serve",
        [
          Alcotest.test_case "end-to-end" `Quick test_end_to_end;
          Alcotest.test_case "update + ra eval" `Quick test_update_and_ra_eval;
          Alcotest.test_case "mixed signatures" `Quick test_mixed_signatures;
          Alcotest.test_case "ra sample = compiled sample" `Quick
            test_ra_sample_matches_compiled;
          Alcotest.test_case "user relation named adom" `Quick
            test_user_adom_ra;
          Alcotest.test_case "drop" `Quick test_drop_end_to_end;
          Alcotest.test_case "durable restart" `Quick
            test_durable_server_restart;
          Alcotest.test_case "oversized line" `Quick test_oversized_line;
          Alcotest.test_case "admission shedding" `Quick test_admission_shedding;
          Alcotest.test_case "fault injection" `Quick test_fault_injection_no_crash;
          Alcotest.test_case "shutdown drains" `Quick test_graceful_shutdown_drains;
          Alcotest.test_case "pooled workers drain and park" `Quick
            test_pooled_workers_drain_and_park;
        ] );
      ( "crash",
        [ Alcotest.test_case "kill -9 recovery" `Quick test_crash_harness ] );
    ]
