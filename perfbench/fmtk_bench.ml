(* fmtk's benchmark: one workload per run.

     fmtk_bench.exe --workload serve_read|serve_write|lib_batch --seed N
       --seconds S --trace 0|1 --server-exe PATH

   With --trace 0 the result line carries every end-to-end metric; with
   --trace 1 it carries every per-layer metric (see BENCHMARK.json; a
   workload reports 0 for a layer it never calls). perfbench/run.py
   builds this executable and the CLI and passes --server-exe. *)

let started = Util.now ()

let serve_ops = List.map Serve_gen.op_name Serve_gen.ops
let lib_families = List.map Lib_batch.family_name Lib_batch.families

(* Every per-layer metric, in BENCHMARK.json order: (name, unit). *)
let per_layer =
  [
    ("protocol.decode_us", "us"); ("protocol.encode_us", "us");
    ("server.transport_ms", "ms"); ("server.queue_wait_ms", "ms");
    ("qcache.parse_us", "us"); ("qcache.hit_rate", "ratio");
    ("qcache.hit_us", "us"); ("qcache.miss_us", "us"); ("compiled.run_us", "us");
    ("pcache.hit_rate", "ratio"); ("pcache.hit_us", "us"); ("pcache.miss_ms", "ms");
    ("store.update_us", "us"); ("journal.encode_us", "us");
    ("journal.bytes_per_write", "bytes"); ("snapshot.compactions", "count");
    ("snapshot.compact_ms", "ms"); ("pcache.apply_us", "us");
    ("pcache.maintained_per_update", "count"); ("qcache.invalidate_us", "us");
    ("store.put_ms", "ms"); ("store.recovery_ms", "ms");
    ("store.replayed_records", "count");
    ("fp_eval.ms", "ms"); ("fp_eval.stages", "count"); ("fp_eval.tuples_tested", "count");
    ("datalog.ms", "ms"); ("datalog.iterations", "count"); ("datalog.join_work", "count");
    ("compiled.answers_ms", "ms"); ("planner.plan_ms", "ms"); ("physical.run_ms", "ms");
    ("counting.ms", "ms");
    ("engine.ms", "ms"); ("engine.positions", "count");
    ("decide.ms", "ms"); ("decide.exact_share", "ratio");
    ("neighborhood.census_ms", "ms"); ("neighborhood.iso_tests", "count");
    ("neighborhood.serial_hit_rate", "ratio"); ("wl.refine_ms", "ms");
    ("write_p50_ms", "ms"); ("write_p99_ms", "ms"); ("disk_kb_per_write", "KB");
    ("fixpoint_ms", "ms"); ("fo_query_ms", "ms"); ("game_ms", "ms"); ("locality_ms", "ms");
    ("failed_pct", "%");
  ]
  @ List.concat_map
      (fun k -> [ ("recon." ^ k ^ ".residual_ms", "ms"); ("recon." ^ k ^ ".overhead_pct", "%") ])
      (serve_ops @ lib_families)

let usage () =
  prerr_endline
    "usage: fmtk_bench.exe --workload serve_read|serve_write|lib_batch --seed N \
     --seconds S --trace 0|1 --server-exe PATH";
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and exe = ref "" in
  let rec parse = function
    | "--workload" :: w :: rest -> workload := w; parse rest
    | "--seed" :: n :: rest -> seed := int_of_string_opt n; parse rest
    | "--seconds" :: s :: rest -> seconds := float_of_string_opt s; parse rest
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | "--server-exe" :: p :: rest -> exe := p; parse rest
    | [] -> ()
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some n, Some s, Some t when s > 0. -> (n, s, t)
    | _ -> usage ()
  in
  Util.mkdir_p ".bench_out";
  let run () =
    match !workload with
    | ("serve_read" | "serve_write") as workload ->
        if not (Sys.file_exists !exe) then usage ();
        Serve_run.run ~workload ~seed ~seconds ~trace ~exe:!exe
    | "lib_batch" -> Lib_batch.run ~seed ~seconds ~trace ~started
    | _ -> usage ()
  in
  match run () with
  | o ->
      (* every time is scaled by the host speed this run measured *)
      let speed = Util.speed () in
      let scale { Util.name; value; unit_ } =
        let value =
          match unit_ with
          | "s" | "ms" | "us" -> value *. speed
          | "1/s" -> value /. speed
          | _ -> value
        in
        { Util.name; value; unit_ }
      in
      Printf.printf "host speed: reference %.4f ms (median of %d), times scaled by %.4f\n"
        (Util.median Util.reference_times *. 1e3)
        (Util.Samples.count Util.reference_times) speed;
      List.iter
        (fun { Util.name; value; unit_ } ->
          Printf.printf "  (unscaled) %-23s %16.6f %s\n" name value unit_)
        o.Util.e2e;
      List.iter
        (fun m ->
          let { Util.name; value; unit_ } = scale m in
          Printf.printf "  (also) %-27s %16.6f %s\n" name value unit_)
        o.Util.extra;
      let metrics =
        if not trace then o.Util.e2e
        else
          let measured =
            o.Util.layers
            @ List.map (fun { Util.name; value; _ } -> (name, value)) o.Util.extra
          in
          List.map
            (fun (name, unit_) ->
              Util.m name unit_ (Option.value (List.assoc_opt name measured) ~default:0.))
            per_layer
      in
      Util.report ~workload:!workload ~seed ~attempted:o.Util.attempted
        ~failed:o.Util.failed (List.map scale metrics)
  | exception Util.Wrong msg ->
      Util.kill_children ();
      prerr_endline ("fmtk_bench: WRONG ANSWER: " ^ msg);
      exit 1
  | exception e ->
      Util.kill_children ();
      prerr_endline ("fmtk_bench: " ^ Printexc.to_string e);
      exit 2
