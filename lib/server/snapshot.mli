(** Checksummed store snapshots: the journal's compaction partner.

    A snapshot is a full dump of the store — the same framed,
    CRC-checked record stream as the {!Journal}: a [Generation] record,
    then one [Put] per named structure — written with the classic
    atomic discipline: write to a temporary file, [fsync] it, [rename]
    over the live snapshot, [fsync] the directory. A reader therefore
    sees either the old snapshot or the new one, never a partial file;
    after a successful {!write} the caller truncates the journal, and
    recovery becomes [load snapshot; replay journal tail]. The
    generation lets recovery recognise a journal the snapshot already
    covers (see {!Journal}).

    Because snapshots are atomic, {e any} damage found when loading one
    (torn tail included) is real corruption: {!load} refuses rather than
    recovering a partial store. *)

module Structure = Fmtk_structure.Structure

(** [file_name]/[temp_name] inside a data dir. *)
val file_name : string

val temp_name : string

val path : dir:string -> string

(** [write ~dir ?inject ?generation entries] atomically replaces the
    snapshot with [entries], stamped with [generation] (default 0). On
    [Error] the previous snapshot (if any) is untouched. Raises
    {!Fmtk_runtime.Io_fault.Crash} under an armed plan. *)
val write :
  dir:string ->
  ?inject:Fmtk_runtime.Io_fault.t ->
  ?generation:int ->
  (string * Structure.t) list ->
  (unit, string) result

(** [load ~dir] reads the snapshot: its generation and its
    [(name, structure)] pairs, in file order. A missing snapshot is
    [Ok (0, [])], and so is the generation of a snapshot that carries
    none; any invalid byte, or a record other than a leading generation
    and puts, is [Error]. *)
val load : dir:string -> (int * (string * Structure.t) list, string) result
