module Signature = Fmtk_logic.Signature

let to_string t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "domain %d\n" (Structure.size t));
  let sg = Structure.signature t in
  List.iter
    (fun (name, k) ->
      Buffer.add_string buf (Printf.sprintf "rel %s/%d =" name k);
      Tuple.Set.iter
        (fun tup ->
          Buffer.add_string buf
            (Printf.sprintf " (%s)"
               (String.concat ","
                  (List.map string_of_int (Array.to_list tup)))))
        (Structure.rel t name);
      Buffer.add_char buf '\n')
    (Signature.rels sg);
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "const %s = %d\n" c (Structure.const t c)))
    (Signature.consts sg);
  Buffer.contents buf

exception Bad of string

let too_large = "structure parse error: domain too large to allocate"

let strip_comment line =
  match String.index_opt line '#' with
  | Some i -> String.sub line 0 i
  | None -> line

let tokens_of line =
  String.split_on_char ' ' (String.trim line)
  |> List.filter (fun s -> s <> "")

let parse_tuple_group s =
  (* Accepts "(1,2)" (no internal spaces after tokenization regrouping). *)
  let s = String.trim s in
  let n = String.length s in
  if n < 2 || s.[0] <> '(' || s.[n - 1] <> ')' then
    raise (Bad (Printf.sprintf "bad tuple %S" s));
  let inner = String.sub s 1 (n - 2) in
  if String.trim inner = "" then [||]
  else
    String.split_on_char ',' inner
    |> List.map (fun x ->
           match int_of_string_opt (String.trim x) with
           | Some v -> v
           | None -> raise (Bad (Printf.sprintf "bad element %S" x)))
    |> Array.of_list

let parse text =
  match
    let size = ref (-1) in
    let rels = ref [] in
    let consts = ref [] in
    let handle_line_exn line =
      match tokens_of (strip_comment line) with
      | [] -> ()
      | [ "domain"; n ] -> (
          match int_of_string_opt n with
          | Some v when v >= 0 -> size := v
          | _ -> raise (Bad (Printf.sprintf "bad domain size %S" n)))
      | "rel" :: spec :: "=" :: tuple_toks ->
          let name, arity =
            match String.split_on_char '/' spec with
            | [ name; k ] -> (
                match int_of_string_opt k with
                | Some a when a >= 0 -> (name, a)
                | _ -> raise (Bad (Printf.sprintf "bad arity in %S" spec)))
            | _ -> raise (Bad (Printf.sprintf "bad relation spec %S" spec))
          in
          (* Tuples may contain no spaces, so each token is one tuple. *)
          let tuples = List.map parse_tuple_group tuple_toks in
          List.iter
            (fun tup ->
              if Array.length tup <> arity then
                raise
                  (Bad
                     (Printf.sprintf "tuple %s has arity %d, expected %d"
                        (Tuple.to_string tup) (Array.length tup) arity)))
            tuples;
          rels := (name, arity, tuples) :: !rels
      | [ "const"; name; "="; e ] -> (
          match int_of_string_opt e with
          | Some v -> consts := (name, v) :: !consts
          | _ -> raise (Bad (Printf.sprintf "bad constant value %S" e)))
      | tok :: _ -> raise (Bad (Printf.sprintf "unknown directive %S" tok))
    in
    (* Re-raise per-line failures with a 1-based line number attached. *)
    let handle_line lineno line =
      try handle_line_exn line
      with
      | Bad msg -> raise (Bad (Printf.sprintf "line %d: %s" lineno msg))
      | Invalid_argument msg ->
          raise (Bad (Printf.sprintf "line %d: %s" lineno msg))
    in
    List.iteri
      (fun i line -> handle_line (i + 1) line)
      (String.split_on_char '\n' text);
    if !size < 0 then raise (Bad "missing 'domain N' line");
    let sg =
      Signature.make
        ~consts:(List.rev_map fst !consts)
        (List.rev_map (fun (n, k, _) -> (n, k)) !rels)
    in
    Structure.make sg ~size:!size ~consts:(List.rev !consts)
      (List.rev_map (fun (n, _, ts) -> (n, ts)) !rels)
  with
  | s -> Ok s
  | exception Bad msg -> Error ("structure parse error: " ^ msg)
  | exception Invalid_argument msg -> Error ("structure parse error: " ^ msg)
  | exception Failure msg -> Error ("structure parse error: " ^ msg)
  | exception Stack_overflow -> Error "structure parse error: input too large"
  | exception Out_of_memory -> Error too_large

(* ---- Streaming edge-list format ----

   "graph N [directed]" followed by one "U V" edge per line; built for
   million-edge inputs, so the reader never holds the whole file, never
   splits a line into a token list, and pushes endpoints straight into
   growable int vectors feeding [Structure.of_graph]. Undirected (the
   default) symmetrizes each line. *)

(* The two whitespace-separated ints of an edge line, parsed by direct
   character scan; [#] starts a comment. [None] for a blank/comment
   line. *)
let parse_edge_line s =
  let n =
    match String.index_opt s '#' with Some i -> i | None -> String.length s
  in
  let i = ref 0 in
  let skip () =
    while !i < n && (s.[!i] = ' ' || s.[!i] = '\t' || s.[!i] = '\r') do
      incr i
    done
  in
  let int_at () =
    let start = !i in
    let v = ref 0 in
    while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
      v := (!v * 10) + (Char.code s.[!i] - Char.code '0');
      incr i
    done;
    if !i = start then raise (Bad "expected a nonnegative integer");
    if !i - start > 18 then raise (Bad "integer too large");
    !v
  in
  skip ();
  if !i = n then None
  else begin
    let u = int_at () in
    skip ();
    let v = int_at () in
    skip ();
    if !i <> n then raise (Bad "trailing junk after edge");
    Some (u, v)
  end

let graph_header_re line =
  match tokens_of (strip_comment line) with
  | "graph" :: n :: rest -> (
      let directed =
        match rest with
        | [] -> Some false
        | [ "directed" ] -> Some true
        | _ -> None
      in
      match (int_of_string_opt n, directed) with
      | Some size, Some directed when size >= 0 -> Some (size, directed)
      | _ -> raise (Bad (Printf.sprintf "bad graph header %S" (String.trim line))))
  | _ -> None

(* [graph_of_lines ~size ~directed next] streams edge lines from [next]
   (which returns [None] at end of input) into a CSR-backed structure. *)
let graph_of_lines ~size ~directed ~lineno0 next =
  let src = Csr.Vec.create ~cap:1024 () and dst = Csr.Vec.create ~cap:1024 () in
  let lineno = ref lineno0 in
  let rec go () =
    match next () with
    | None -> ()
    | Some line ->
        incr lineno;
        (match
           try parse_edge_line line
           with Bad msg -> raise (Bad (Printf.sprintf "line %d: %s" !lineno msg))
         with
        | None -> ()
        | Some (u, v) ->
            if u >= size || v >= size then
              raise
                (Bad
                   (Printf.sprintf "line %d: endpoint outside domain [0,%d)"
                      !lineno size));
            Csr.Vec.push src u;
            Csr.Vec.push dst v;
            if not directed then begin
              Csr.Vec.push src v;
              Csr.Vec.push dst u
            end);
        go ()
  in
  go ();
  Structure.of_graph Signature.graph ~size
    [ ("E", (Csr.Vec.to_array src, Csr.Vec.to_array dst)) ]

(* Line iterator over a string without materializing a line list. *)
let string_lines text =
  let pos = ref 0 in
  fun () ->
    if !pos > String.length text then None
    else
      let stop =
        match String.index_from_opt text !pos '\n' with
        | Some i -> i
        | None -> String.length text
      in
      let line = String.sub text !pos (stop - !pos) in
      pos := stop + 1;
      if stop = String.length text then pos := stop + 1;
      Some line

(* First non-blank, non-comment line decides the format: a "graph"
   header streams; anything else takes the directive parser above. *)
let parse text =
  let probe = string_lines text in
  let rec first_line n =
    match probe () with
    | None -> (n, None)
    | Some line ->
        if tokens_of (strip_comment line) = [] then first_line (n + 1)
        else (n, Some line)
  in
  match
    let skipped, header = first_line 0 in
    match header with
    | None -> None
    | Some line -> (
        match graph_header_re line with
        | Some (size, directed) ->
            Some (graph_of_lines ~size ~directed ~lineno0:(skipped + 1) probe)
        | None -> None)
  with
  | Some s -> Ok s
  | None -> parse text
  | exception Bad msg -> Error ("structure parse error: " ^ msg)
  | exception Invalid_argument msg -> Error ("structure parse error: " ^ msg)
  | exception Out_of_memory -> Error too_large

let declared_size text =
  let next = string_lines text in
  let rec scan first acc =
    match next () with
    | None -> acc
    | Some line -> (
        match tokens_of (strip_comment line) with
        | [] -> scan first acc
        | "graph" :: n :: _ when first -> int_of_string_opt n
        | [ "domain"; n ] -> scan false (max acc (int_of_string_opt n))
        | _ -> scan false acc)
  in
  scan true None

let parse_exn text =
  match parse text with Ok s -> s | Error msg -> invalid_arg msg

let to_graph_string t =
  let sg = Structure.signature t in
  match (Signature.rels sg, Signature.consts sg) with
  | [ (name, 2) ], [] ->
      let buf = Buffer.create 1024 in
      Buffer.add_string buf (Printf.sprintf "graph %d directed\n" (Structure.size t));
      Structure.iter_rel2 t name (fun u v ->
          Buffer.add_string buf (string_of_int u);
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int v);
          Buffer.add_char buf '\n');
      Buffer.contents buf
  | _ ->
      invalid_arg
        "Structure_io.to_graph_string: needs exactly one binary relation and \
         no constants"

let load path =
  let stream ic =
    (* Peek line by line for the header; hand the open channel to the
       streaming reader when found, fall back to whole-file parse
       otherwise (directive files are small by construction). *)
    let rec probe skipped =
      match In_channel.input_line ic with
      | None -> Ok (parse "")
      | Some line -> (
          if tokens_of (strip_comment line) = [] then probe (skipped + 1)
          else
            match graph_header_re line with
            | Some (size, directed) ->
                Ok
                  (Ok
                     (graph_of_lines ~size ~directed ~lineno0:(skipped + 1)
                        (fun () -> In_channel.input_line ic)))
            | None -> Error skipped)
    in
    match probe 0 with
    | Ok r -> r
    | Error _ ->
        In_channel.seek ic 0L;
        parse (In_channel.input_all ic)
  in
  match In_channel.with_open_text path stream with
  | r -> r
  | exception Bad msg -> Error ("structure parse error: " ^ msg)
  | exception Invalid_argument msg -> Error ("structure parse error: " ^ msg)
  | exception Sys_error msg -> Error msg
  | exception Out_of_memory -> Error (path ^ ": file too large to load")
