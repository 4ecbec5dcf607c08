module Structure = Fmtk_structure.Structure

let file_name = "snapshot.fmtk"

let temp_name = "snapshot.fmtk.tmp"

let path ~dir = Filename.concat dir file_name

let temp_path ~dir = Filename.concat dir temp_name

let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e

let fsync_dir dir =
  (* Persist the rename itself. Directory fsync is best-effort: some
     filesystems refuse it, and the rename is still atomic there. *)
  match Unix.openfile dir [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 with
  | fd ->
      (try Unix.fsync fd with Unix.Unix_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let write ~dir ?inject ?(generation = 0) entries =
  let tmp = temp_path ~dir in
  let* w = Journal.open_append ?inject tmp in
  let finish r =
    Journal.close w;
    (match r with
    | Ok () -> ()
    | Error _ -> ( try Sys.remove tmp with Sys_error _ -> ()));
    r
  in
  finish
    (let* () = Journal.reset w (* a crashed earlier compaction may have left bytes *) in
     let* () = Journal.append w (Journal.Generation generation) in
     let* () =
       List.fold_left
         (fun acc (name, s) ->
           let* () = acc in
           Journal.append w
             (Journal.Put { name; data = Journal.encode_structure s }))
         (Ok ()) entries
     in
     let* () = Journal.sync w in
     match Unix.rename tmp (path ~dir) with
     | () ->
         fsync_dir dir;
         Ok ()
     | exception Unix.Unix_error (e, _, _) ->
         Error (Printf.sprintf "rename: %s" (Unix.error_message e)))

let load ~dir =
  let f (first, generation, entries) r =
    match r with
    | Journal.Generation g when first -> Ok (false, g, entries)
    | Journal.Put { name; data } -> (
        match Journal.decode_structure data with
        | Ok s -> Ok (false, generation, (name, s) :: entries)
        | Error e -> Error (Printf.sprintf "record %S undecodable: %s" name e))
    | Journal.Generation _ -> Error "generation record after the first"
    | Journal.Remove _ | Journal.Update _ ->
        Error "a snapshot holds only its generation and puts"
  in
  match Journal.replay ~path:(path ~dir) ~init:(true, 0, []) ~f with
  | Error e -> Error ("snapshot " ^ Journal.error_to_string e)
  | Ok (_, _, Journal.Torn { at; _ }) ->
      Error
        (Printf.sprintf
           "snapshot corrupt at byte %d: torn record in an atomically \
            written file"
           at)
  | Ok ((_, generation, rev_entries), _, Journal.Clean) ->
      Ok (generation, List.rev rev_entries)
