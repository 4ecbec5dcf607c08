(** Plain-text serialization of structures, used by the CLI.

    Two formats, distinguished by the first non-blank, non-comment line
    (whitespace-insensitive, [#] starts a line comment).

    Directive format, for general signatures:
    {v
      domain 5
      rel E/2 = (0,1) (1,2) (2,3)
      rel P/1 = (0) (4)
      const a = 3
    v}

    Edge-list format, for large graphs over signature [E/2] — streamed
    line by line (no whole-file string, no per-line token list), so
    million-edge files load in O(edges) time and O(1) line-sized
    buffers. Edges are symmetrized unless the header says [directed]:
    {v
      graph 1000000
      0 1
      1 2
    v} *)

val to_string : Structure.t -> string

(** [to_graph_string t] renders in the edge-list format (header
    [graph N directed], one [u v] line per edge).
    @raise Invalid_argument unless [t] has exactly one binary relation
    and no constants. *)
val to_graph_string : Structure.t -> string

(** [parse text] — total on arbitrary input: every malformed line is
    reported as [Error] with its 1-based line number, and a domain too
    large to allocate as [Error] too, never an uncaught exception.
    Dispatches on the [graph] header. *)
val parse : string -> (Structure.t, string) result

(** [declared_size text] — the element count [text] declares (its
    [graph N] header, or its largest [domain N] line), read without
    building anything, so a caller can refuse an oversized structure
    before {!parse} allocates it. [None] when [text] declares none. *)
val declared_size : string -> int option

(** @raise Invalid_argument on parse error. *)
val parse_exn : string -> Structure.t

(** [load path] — reads and parses; I/O errors become [Error] too.
    Edge-list inputs are read incrementally off the channel. *)
val load : string -> (Structure.t, string) result
