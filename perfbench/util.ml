(* Clock, sample statistics, /proc probes and the result line shared by
   every workload. *)

(* Seconds on the monotonic clock, at nanosecond resolution. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

exception Wrong of string
(* A wrong answer: the run aborts and the command exits non-zero. *)

let wrong fmt = Printf.ksprintf (fun m -> raise (Wrong m)) fmt

(* ---- samples ---- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 256 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0. in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s

  let sum t =
    let s = ref 0. in
    for i = 0 to t.n - 1 do s := !s +. t.a.(i) done;
    !s
end

(* Linear-interpolated quantile of a sorted array; 0 on no samples. *)
let quantile_sorted s q =
  let n = Array.length s in
  if n = 0 then 0.
  else
    let pos = q *. float_of_int (n - 1) in
    let i = truncate pos in
    let frac = pos -. float_of_int i in
    if i + 1 >= n then s.(n - 1) else s.(i) +. (frac *. (s.(i + 1) -. s.(i)))

let median t = quantile_sorted (Samples.sorted t) 0.5

let median_list xs =
  let s = Array.of_list xs in
  Array.sort compare s;
  quantile_sorted s 0.5

(* The mean of the samples between the 40th and 60th percentiles: a
   median that moves smoothly when the samples form clusters, where a
   plain median is the value of whichever cluster holds the middle. *)
let smoothed_median t =
  let s = Samples.sorted t in
  let n = Array.length s in
  if n = 0 then 0.
  else begin
    let a = 2 * n / 5 in
    let b = max (a + 1) (3 * n / 5) in
    let sum = ref 0. in
    for i = a to b - 1 do
      sum := !sum +. s.(i)
    done;
    !sum /. float_of_int (b - a)
  end

(* The tail latency the benchmark reports: p99 when there are at least
   1000 samples (so at least 10 lie beyond it), otherwise the highest
   percentile that still has 10 samples beyond it — the 11th-highest
   sample, taken as is so that it never interpolates between two
   different jobs. Returns (value, percentile). *)
let tail t =
  let s = Samples.sorted t in
  let n = Array.length s in
  if n = 0 then (0., 0.)
  else if n >= 1000 then
    let i = int_of_float (Float.ceil (0.99 *. float_of_int n)) - 1 in
    (s.(i), 99.)
  else
    let i = max 0 (n - 11) in
    (s.(i), 100. *. float_of_int (i + 1) /. float_of_int n)

(* The tail of a long run: the samples, in the order they were taken, are
   cut into consecutive chunks of at least 1000, and the median of the
   chunks' p99s is reported, so that a burst of host noise confined to a
   few chunks does not set it. Under 2000 samples, [tail] of them all. *)
let tail_chunked (t : Samples.t) =
  let n = Samples.count t in
  let k = n / 1000 in
  if k < 2 then tail t
  else
    let chunk i =
      let c = Samples.create () in
      for j = i * n / k to ((i + 1) * n / k) - 1 do
        Samples.add c t.Samples.a.(j)
      done;
      fst (tail c)
    in
    (median_list (List.init k chunk), 99.)

(* ---- host speed ----

   The shared host this benchmark was developed on changes speed by tens
   of percent from one minute to the next (other tenants), which is more
   than any bound a regression check could use. So each run also times a
   fixed reference computation — the benchmark's own code, not fmtk's —
   at quiet moments throughout the run, and every time it reports is
   scaled by [reference_nominal / median reference time]: the time the
   run would have taken on a host where the reference takes
   [reference_nominal]. A change to fmtk leaves the reference alone, so
   it moves the scaled times as it moves the raw ones.

   The reference does what fmtk's layers do most, in two parts. The
   first allocates: hashing, sorting and ordered-set inserts, then a
   list and a map built past the minor heap, so that the minor collector
   promotes them. The second allocates nothing: inserts into an
   open-addressing table and an in-place sort, on arrays kept from one
   sample to the next. The host's slow spells slow allocation and cache
   traffic far more than arithmetic; timing the parts together keeps the
   collector's state, which the first part depends on, from setting the
   reference alone. *)

module Ref_set = Set.Make (struct
  type t = int array

  let compare = compare
end)

module Int_map = Map.Make (Int)

let reference_nominal = 3.6e-3
let reference_times = Samples.create ()
let reference_starts = Samples.create () (* when each reference was taken *)
let ref_table = lazy (Array.make (1 lsl 17) (-1))
let ref_sorted = lazy (Array.make 8192 0)

let time_reference () =
  let t0 = now () in
  let h = Hashtbl.create 1024 in
  for i = 0 to 2_500 do
    Hashtbl.replace h ((i * 7919) land 0xffff) i
  done;
  let a = Array.init 1_250 (fun i -> (i * 2654435761) land 0xffffff) in
  Array.sort compare a;
  let s = ref Ref_set.empty in
  for i = 0 to 500 do
    s := Ref_set.add [| (i * 31) land 1023; i land 255 |] !s
  done;
  let l = List.init 20_000 (fun i -> (i, i * 7)) in
  let m = ref Int_map.empty in
  List.iteri (fun i (k, _) -> if i land 7 = 0 then m := Int_map.add k i !m) l;
  let t = Lazy.force ref_table in
  let mask = Array.length t - 1 in
  Array.fill t 0 (Array.length t) (-1);
  for i = 0 to 40_000 do
    let k = (i * 7919) land 0xfffff in
    let j = ref ((k * 2654435761) land mask) in
    while t.(!j) <> -1 && t.(!j) <> k do
      j := (!j + 1) land mask
    done;
    t.(!j) <- k
  done;
  let sorted = Lazy.force ref_sorted in
  Array.iteri (fun i _ -> sorted.(i) <- (i * 2654435761) land 0xffffff) sorted;
  Array.sort compare sorted;
  ignore
    (Sys.opaque_identity
       (Ref_set.cardinal !s + Hashtbl.length h + a.(0) + Int_map.cardinal !m
      + sorted.(0)));
  Samples.add reference_starts t0;
  Samples.add reference_times (now () -. t0)

(* Multiply times by this (divide rates by it). *)
let speed () =
  if Samples.count reference_times = 0 then 1.
  else reference_nominal /. median reference_times

(* How much slower the host was during [a, b) than over the whole run:
   the median reference taken in that interval over the median of all of
   them, or 1 when fewer than 5 were taken in it. The host drifts by tens
   of percent within one run too, so times are divided by the drift of
   the second or so in which they were measured (rates multiplied) before
   [speed] scales the run as a whole. *)
let drift (a, b) =
  let inside = Samples.create () in
  for i = 0 to Samples.count reference_starts - 1 do
    let t = reference_starts.Samples.a.(i) in
    if t >= a && t < b then Samples.add inside reference_times.Samples.a.(i)
  done;
  if Samples.count inside < 5 then 1. else median inside /. median reference_times

(* ---- files ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

(* ---- child processes: every one is reaped before the benchmark exits ---- *)

let children : int list ref = ref []

let spawn prog args =
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) devnull devnull
      Unix.stderr
  in
  Unix.close devnull;
  children := pid :: !children;
  pid

let reaped pid = children := List.filter (( <> ) pid) !children

let kill_children () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !children;
  children := []

(* ---- /proc ---- *)

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let buf = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_channel buf ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Some (Buffer.contents buf)

(* [proc_field path key] — the first integer after "key:" in a /proc file. *)
let proc_field path key =
  match read_file path with
  | None -> None
  | Some text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.index_opt line ':' with
             | Some i when String.sub line 0 i = key ->
                 let rest = String.sub line (i + 1) (String.length line - i - 1) in
                 String.split_on_char ' ' rest
                 |> List.find_map (fun w ->
                        match String.trim w with
                        | "" -> None
                        | w -> int_of_string_opt w)
             | _ -> None)

(* Peak resident set of a process, MB (VmHWM is reported in kB). *)
let peak_rss_mb pid =
  match proc_field (Printf.sprintf "/proc/%s/status" pid) "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith ("cannot read VmHWM of process " ^ pid)

let wchar pid =
  match proc_field (Printf.sprintf "/proc/%s/io" pid) "wchar" with
  | Some b -> b
  | None -> failwith ("cannot read /proc/" ^ pid ^ "/io")

(* ---- the result ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What a workload run produces: every end-to-end metric, the
   workload-specific end-to-end numbers that only some workloads have
   (printed, and reported among the per-layer metrics), the per-layer
   values it measured ([--trace 1] only), and the operation counts. *)
type outcome = {
  e2e : metric list;
  extra : metric list;
  layers : (string * float) list;
  attempted : int;
  failed : int;
}

let json_float x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.1f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0.0"

(* Human-readable table on stdout, then the JSON result line, which must
   be the last line of stdout. A run with a wrong answer never gets here:
   it exits non-zero. *)
let report ~workload ~seed ~attempted ~failed metrics =
  Printf.printf "workload %s, seed %d: %d attempted, %d failed, answers correct\n"
    workload seed attempted failed;
  List.iter
    (fun { name; value; unit_ } ->
      Printf.printf "  %-34s %16.6f %s\n" name value unit_)
    metrics;
  let fields =
    List.map
      (fun { name; value; unit_ } ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_float value) unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": true, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    attempted failed
    (String.concat ", " fields)
