(** Deciding the almost-sure theory of the random graph — the constructive
    side of the FO 0-1 law.

    Measure convention: the {e undirected, loop-free} Erdős–Rényi model
    G(n, 1/2) ("almost all graphs" in the classical sense). For the uniform
    measure over arbitrary relational structures — directed edges, loops —
    use {!Extension.sigma_extension_holds} witnesses instead; the decision
    principle is identical but witness sizes grow much faster.

    Transfer principle: for a sentence [φ] of quantifier rank [q], all
    q-e.c. graphs agree on [φ] (the duplicator wins the q-round EF game
    between any two of them, extending the partial isomorphism one
    extension axiom at a time), and a uniformly random graph is q-e.c.
    with probability → 1. Hence [μ(φ) ∈ {0, 1}], and its value is read
    off any q-e.c. witness. *)

module Structure = Fmtk_structure.Structure
module Formula = Fmtk_logic.Formula

(** How the witness graph is obtained. *)
type witness_source =
  | Paley  (** {!Paley.witness} — deterministic, can be large *)
  | Search of Random.State.t * int
      (** random graphs of the given size, verified k-e.c. and re-drawn
          until verification passes *)

(** [decide ?source phi] — [true] iff [μ(φ) = 1]. The witness is verified
    [q]-e.c. (with [q = quantifier rank of φ]) before use, so the answer
    does not depend on unproven bounds.
    @raise Invalid_argument if [phi] is not a first-order graph sentence.
    @raise Failure if a searched witness cannot be found. *)
val decide : ?source:witness_source -> Formula.t -> bool

(** [mu phi] = [1.] or [0.] — {!decide} as a measure value. *)
val mu : ?source:witness_source -> Formula.t -> float

(** [find_kec_witness ~rng ~k ~size ~attempts] — random search for a
    k-e.c. graph (edge probability 1/2), verified by {!Extension.is_kec}. *)
val find_kec_witness :
  rng:Random.State.t -> k:int -> size:int -> attempts:int -> Structure.t option
