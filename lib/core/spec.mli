(** Structure specs: the one-line structure syntax of the CLI arguments,
    [fmtk serve --preload], and the serve protocol's [load] op.

    A generator spec is one of [set:4], [order:5], [chain:6] (alias
    [successor:6]), [cycle:8], [complete:3], [tree:3], [grid:3x4],
    [torus:100x100], [chorded:1000:37] (cycle plus stride-37 chords),
    [regular:1000:4:7] (random d-regular, size:degree:seed),
    [random:20:0.3:7] (size:edge-probability:seed), [paley:13], [cfi:4],
    [cfi-twisted:4]. The CLI and [--preload] also accept a path to a
    structure file in one of the {!Fmtk_structure.Structure_io} formats
    (directive or streaming edge-list); the protocol accepts generators
    only, so a client cannot make the server read its files. *)

(** A generator spec sized from its arguments, before anything is
    built — so a caller can refuse an oversized one first. *)
type generator = {
  elements : int;  (** domain size *)
  tuples : int;
      (** tuple count: exact, except an upper bound for [random] (every
          candidate pair), [grid], [torus] and [chorded]; saturates at
          [max_int] *)
  build : unit -> (Fmtk_structure.Structure.t, string) result;
      (** total, like {!parse} *)
}

(** [generator spec] — [spec] as a generator, sized but not built.
    [Error] for a malformed spec and for anything that is not a
    generator, file paths included. *)
val generator : string -> (generator, string) result

(** A generator spec, built, or a structure file, loaded. Total:
    malformed specs, bad numbers and unreadable files all come back as
    [Error], never an exception. *)
val parse : string -> (Fmtk_structure.Structure.t, string) result

(** @raise Invalid_argument on a bad spec. *)
val parse_exn : string -> Fmtk_structure.Structure.t
