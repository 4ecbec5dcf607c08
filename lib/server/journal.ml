module Structure = Fmtk_structure.Structure
module Structure_io = Fmtk_structure.Structure_io
module Signature = Fmtk_logic.Signature
module Io_fault = Fmtk_runtime.Io_fault

type record =
  | Put of { name : string; data : string }
  | Remove of { name : string }
  | Update of { name : string; rel : string; tuple : int array; add : bool }
  | Generation of int

(* ---- CRC32 (IEEE, reflected, poly 0xEDB88320) ---- *)

let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32_sub s pos len =
  let table = Lazy.force crc_table in
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Char.code (String.unsafe_get s i)) land 0xff)
         lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let crc32 s = crc32_sub s 0 (String.length s)

(* ---- framing ---- *)

let header_len = 12

(* Records above this are an encoder bug or deliberate corruption, never
   legitimate data: refuse rather than allocate. *)
let max_record = 1 lsl 30

let put_u32 b off v =
  Bytes.set b off (Char.chr ((v lsr 24) land 0xff));
  Bytes.set b (off + 1) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set b (off + 2) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set b (off + 3) (Char.chr (v land 0xff))

let get_u32 s off =
  (Char.code s.[off] lsl 24)
  lor (Char.code s.[off + 1] lsl 16)
  lor (Char.code s.[off + 2] lsl 8)
  lor Char.code s.[off + 3]

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (header_len + n) in
  put_u32 b 0 n;
  put_u32 b 4 (crc32 payload);
  put_u32 b 8 (crc32_sub (Bytes.unsafe_to_string b) 0 8);
  Bytes.blit_string payload 0 b header_len n;
  Bytes.unsafe_to_string b

(* ---- payload codec ----

   A tag byte, the record's length-prefixed (u32) strings, then the
   rest of the payload:
     'P' name; rest = the structure data
     'D' name; no rest
     'U' name, relation; rest = an action byte (1 insert, 0 delete),
         then one u63 per coordinate (arity = the rest's words)
     'G' no strings; rest = one u63, the generation
   where a u63 is a non-negative int in 8 big-endian bytes. *)

let u63s vs =
  let b = Bytes.create (8 * Array.length vs) in
  Array.iteri
    (fun i v ->
      for j = 0 to 7 do
        Bytes.set b ((8 * i) + j) (Char.chr ((v lsr (8 * (7 - j))) land 0xff))
      done)
    vs;
  Bytes.unsafe_to_string b

(* [None] when the word does not fit a non-negative OCaml int. *)
let get_u63 s off =
  if Char.code s.[off] land 0xc0 <> 0 then None
  else
    let v = ref 0 in
    for i = 0 to 7 do
      v := (!v lsl 8) lor Char.code s.[off + i]
    done;
    Some !v

let encode_payload r =
  let tag, strings, rest =
    match r with
    | Put { name; data } -> ('P', [ name ], data)
    | Remove { name } -> ('D', [ name ], "")
    | Update { name; rel; tuple; add } ->
        ('U', [ name; rel ], (if add then "\001" else "\000") ^ u63s tuple)
    | Generation g -> ('G', [], u63s [| g |])
  in
  let len =
    List.fold_left (fun n x -> n + 4 + String.length x) 1 strings
    + String.length rest
  in
  let b = Bytes.create len in
  Bytes.set b 0 tag;
  let off =
    List.fold_left
      (fun off x ->
        let n = String.length x in
        put_u32 b off n;
        Bytes.blit_string x 0 b (off + 4) n;
        off + 4 + n)
      1 strings
  in
  Bytes.blit_string rest 0 b off (String.length rest);
  Bytes.unsafe_to_string b

let decode_payload s =
  let len = String.length s in
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  (* The length-prefixed string at [off], and the offset after it. *)
  let str what off =
    if len - off < 4 then Error (Printf.sprintf "payload ends before the %s" what)
    else
      let n = get_u32 s off in
      if n > len - off - 4 then
        Error (Printf.sprintf "%s length %d exceeds payload" what n)
      else Ok (String.sub s (off + 4) n, off + 4 + n)
  in
  let u63 what off =
    match get_u63 s off with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "%s out of range" what)
  in
  if len = 0 then Error "empty payload"
  else
    match s.[0] with
    | 'P' ->
        let* name, off = str "name" 1 in
        Ok (Put { name; data = String.sub s off (len - off) })
    | 'D' ->
        let* name, off = str "name" 1 in
        if off <> len then Error "trailing bytes after remove record"
        else Ok (Remove { name })
    | 'U' ->
        let* name, off = str "name" 1 in
        let* rel, off = str "relation" off in
        let* add =
          if off >= len then Error "payload ends before the update action"
          else
            match s.[off] with
            | '\001' -> Ok true
            | '\000' -> Ok false
            | c -> Error (Printf.sprintf "unknown update action %C" c)
        in
        let rest = len - off - 1 in
        if rest mod 8 <> 0 then
          Error "update coordinates are not whole 8-byte words"
        else
          let tuple = Array.make (rest / 8) 0 in
          let rec fill i =
            if i = Array.length tuple then Ok ()
            else
              let* v = u63 "update coordinate" (off + 1 + (8 * i)) in
              tuple.(i) <- v;
              fill (i + 1)
          in
          let* () = fill 0 in
          Ok (Update { name; rel; tuple; add })
    | 'G' ->
        if len <> 9 then Error "generation record is not 8 bytes"
        else
          let* g = u63 "generation" 1 in
          Ok (Generation g)
    | c -> Error (Printf.sprintf "unknown record tag %C" c)

let encode r = frame (encode_payload r)

(* ---- structure (de)serialization for Put payloads ---- *)

let graph_shaped s =
  let sg = Structure.signature s in
  Signature.rels sg = [ ("E", 2) ] && Signature.consts sg = []

let encode_structure s =
  if graph_shaped s then Structure_io.to_graph_string s
  else Structure_io.to_string s

let decode_structure data = Structure_io.parse data

(* ---- replay ---- *)

type tail = Clean | Torn of { at : int; dropped : int }

type error = Corrupt of { at : int; reason : string } | Io_error of string

let error_to_string = function
  | Corrupt { at; reason } ->
      Printf.sprintf "corrupt at byte %d: %s" at reason
  | Io_error msg -> msg

let replay ~path ~init ~f =
  match
    In_channel.with_open_bin path (fun ic ->
        let file_size =
          match In_channel.length ic with
          | n when n <= Int64.of_int max_int -> Int64.to_int n
          | _ -> failwith "journal larger than max_int"
        in
        let rec go acc count off =
          let remaining = file_size - off in
          if remaining = 0 then Ok (acc, count, Clean)
          else if remaining < header_len then
            Ok (acc, count, Torn { at = off; dropped = remaining })
          else begin
            let header = really_input_string ic header_len in
            let plen = get_u32 header 0 in
            let pcrc = get_u32 header 4 in
            let hcrc = get_u32 header 8 in
            if crc32_sub header 0 8 <> hcrc then
              (* A killed writer leaves a clean prefix; a mangled header
                 is damage a crash cannot explain. *)
              Error (Corrupt { at = off; reason = "header checksum mismatch" })
            else if plen > max_record then
              Error
                (Corrupt
                   { at = off; reason = Printf.sprintf "record length %d over the %d cap" plen max_record })
            else if remaining - header_len < plen then
              Ok (acc, count, Torn { at = off; dropped = remaining })
            else begin
              let payload = really_input_string ic plen in
              if crc32 payload <> pcrc then
                if off + header_len + plen = file_size then
                  (* Final record, full length present, bad bytes: a tear
                     from out-of-order writeback — drop it. *)
                  Ok (acc, count, Torn { at = off; dropped = remaining })
                else
                  Error
                    (Corrupt { at = off; reason = "payload checksum mismatch" })
              else
                match decode_payload payload with
                | Error reason ->
                    Error
                      (Corrupt
                         { at = off; reason = "undecodable record: " ^ reason })
                | Ok r -> (
                    match f acc r with
                    | Ok acc -> go acc (count + 1) (off + header_len + plen)
                    | Error reason -> Error (Corrupt { at = off; reason }))
            end
          end
        in
        go init 0 0)
  with
  | r -> r
  | exception Sys_error msg ->
      if Sys.file_exists path then Error (Io_error msg) else Ok (init, 0, Clean)
  | exception End_of_file ->
      Error (Io_error "journal shrank while being read")
  | exception Failure msg -> Error (Io_error msg)

(* ---- writer ---- *)

type writer = {
  fd : Unix.file_descr;
  wpath : string;
  inject : Io_fault.t option;
  mutable bytes : int;
  mutable closed : bool;
}

let io_guard f =
  match f () with
  | v -> Ok v
  | exception Unix.Unix_error (e, fn, _) ->
      Error (Printf.sprintf "%s: %s" fn (Unix.error_message e))
  | exception Sys_error msg -> Error msg

let open_append ?inject path =
  io_guard (fun () ->
      let fd =
        Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
      in
      let bytes = (Unix.fstat fd).Unix.st_size in
      { fd; wpath = path; inject; bytes; closed = false })

let write_all fd s pos len =
  let rec push off =
    if off < len then
      match Unix.write_substring fd s (pos + off) (len - off) with
      | n -> push (off + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
  in
  push 0

let append ?generation w r =
  let framed =
    match generation with
    | Some g when w.bytes = 0 -> encode (Generation g) ^ encode r
    | _ -> encode r
  in
  let n = String.length framed in
  match Option.map Io_fault.short_write w.inject with
  | Some (Some k) ->
      (* Torn-tail injection: a prefix of the frame reaches the file,
         the process "dies". The tracked size is already meaningless —
         the store never touches this writer again. *)
      let k = min k n in
      (try write_all w.fd framed 0 k with Unix.Unix_error _ -> ());
      w.bytes <- w.bytes + k;
      Io_fault.crash ()
  | Some None | None ->
      io_guard (fun () ->
          write_all w.fd framed 0 n;
          w.bytes <- w.bytes + n;
          Option.iter Io_fault.after_append w.inject)

let sync w =
  io_guard (fun () ->
      Option.iter Io_fault.before_sync w.inject;
      Unix.fsync w.fd)

let truncate_to w bytes =
  io_guard (fun () ->
      Unix.ftruncate w.fd bytes;
      w.bytes <- bytes;
      Unix.fsync w.fd)

let reset w = truncate_to w 0

let size w = w.bytes

let path w = w.wpath

let close w =
  if not w.closed then begin
    w.closed <- true;
    try Unix.close w.fd with Unix.Unix_error _ -> ()
  end
