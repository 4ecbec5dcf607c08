(* Byte-level mutants of a valid document, for decoder totality
   properties: every truncation, then [count] seeded random edits of 1–3
   byte replacements, insertions or deletions each. Half the new bytes
   come from the decoders' own punctuation, so edits hit the grammar
   more often than uniform noise would. *)

let grammar = "0123456789 \n\t(),=/-#{}[]:\".\\"

let of_doc ~seed ~count doc =
  let rng = Random.State.make [| seed |] in
  let byte () =
    if Random.State.bool rng then
      grammar.[Random.State.int rng (String.length grammar)]
    else Char.chr (Random.State.int rng 256)
  in
  let edit s =
    let len = String.length s in
    let pos = Random.State.int rng (len + 1) in
    let before = String.sub s 0 pos in
    match Random.State.int rng 3 with
    | 0 when pos < len ->
        before ^ String.make 1 (byte ()) ^ String.sub s (pos + 1) (len - pos - 1)
    | 1 when pos < len -> before ^ String.sub s (pos + 1) (len - pos - 1)
    | _ -> before ^ String.make 1 (byte ()) ^ String.sub s pos (len - pos)
  in
  let rec edits s k = if k = 0 then s else edits (edit s) (k - 1) in
  List.init (String.length doc + 1) (fun k -> String.sub doc 0 k)
  @ List.init count (fun _ -> edits doc (1 + Random.State.int rng 3))
