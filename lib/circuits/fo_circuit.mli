(** The FO → AC⁰ compilation of slide 23 ("FOL is in AC⁰ data
    complexity"): for a fixed sentence and schema, one circuit per domain
    size [n], whose inputs are the ground atoms [R(d1..dk)] and whose
    output is the truth of the sentence.

    Quantifiers become unbounded fan-in gates over the [n] instantiations
    (∃ ↦ OR, ∀ ↦ AND), Boolean connectives become the corresponding
    gates, and atoms become input wires — so the family has depth bounded
    by the formula (constant in [n]) and size [O(n^q · |φ|)] (polynomial
    in [n]); experiment E2 measures both. *)

module Formula = Fmtk_logic.Formula
module Structure = Fmtk_structure.Structure

type compiled

(** [compile sg ~size phi] builds the circuit for domain [{0..size-1}].
    [phi] must be a first-order sentence well-formed over [sg]; constants
    are not supported (the circuit family is schema-level, constants would
    pin domain elements).
    @raise Invalid_argument otherwise. *)
val compile : Fmtk_logic.Signature.t -> size:int -> Formula.t -> compiled

(** Ground-atom input name: [R(d1,..,dk)] is ["R:d1,..,dk"]. *)
val atom_input : string -> int array -> string

(** Run the compiled circuit on a structure of the compiled size.
    @raise Invalid_argument on size mismatch. *)
val run : compiled -> Structure.t -> bool

val circuit_size : compiled -> int
val circuit_depth : compiled -> int
val input_count : compiled -> int
