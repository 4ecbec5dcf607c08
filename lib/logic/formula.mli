(** Formulas over relational signatures: first-order logic and the
    extensions the toolbox moves on to once FO's limits are proved.

    The first-order core follows the paper: atoms are relation atoms and
    equalities; connectives are the usual Booleans; quantifiers bind one
    variable at a time. A {e sentence} is a formula without free variables;
    a formula with free variables [x1..xn] induces an n-ary query
    (slide 10).

    The extension constructors add, on the same syntax, the counting
    quantifier of FO(Cnt), the inflationary fixpoint of FO(IFP), and the
    set and relation quantifiers of MSO and SO. A relation atom [Rel (r, _)]
    names either a signature relation or a relation variable bound by an
    enclosing [Ifp] or [Exists_rel]/[Forall_rel] — the innermost binder
    wins. Consumers that only handle FO ({!Transform}, the compilers, the
    parser's output) refuse the extensions rather than guess; see
    {!is_fo}. *)

type t =
  | True
  | False
  | Eq of Term.t * Term.t
  | Rel of string * Term.t list
  | Not of t
  | And of t * t
  | Or of t * t
  | Implies of t * t
  | Iff of t * t
  | Exists of string * t
  | Forall of string * t
  | Count_geq of int * string * t
      (** [Count_geq (k, x, φ)] is [∃^{≥k} x. φ]: at least [k] elements
          satisfy [φ] — FO(Cnt). *)
  | Ifp of string * string list * t * Term.t list
      (** [Ifp (r, [x1..xk], body, [t1..tk])] is [[IFP_{r,x̄} body](t̄)]:
          iterate [S ↦ S ∪ {ā | body(S, ā)}] from ∅ to its (inflationary,
          hence always existing) fixpoint and test [t̄] — FO(IFP). *)
  | Mem of Term.t * string  (** [t ∈ X] for a set variable [X] *)
  | Exists_set of string * t  (** monadic second-order *)
  | Forall_set of string * t
  | Exists_rel of string * int * t  (** full second-order, given arity *)
  | Forall_rel of string * int * t

(** {1 Smart constructors} *)

val eq : Term.t -> Term.t -> t
val neq : Term.t -> Term.t -> t
val rel : string -> Term.t list -> t
val not_ : t -> t

(** n-ary conjunction; [conj [] = True]. *)
val conj : t list -> t

(** n-ary disjunction; [disj [] = False]. *)
val disj : t list -> t

val implies : t -> t -> t
val iff : t -> t -> t
val exists : string -> t -> t
val forall : string -> t -> t

(** [exists_many [x1;..;xk] f = ∃x1..∃xk f]. *)
val exists_many : string list -> t -> t

val forall_many : string list -> t -> t

(** Shorthand for a variable term. *)
val v : string -> Term.t

(** Shorthand for a constant term. *)
val c : string -> Term.t

(** {1 Structural measures} *)

(** Quantifier rank (slide 41): maximal nesting depth of first-order and
    counting quantifiers. Fixpoint and second-order binders do not
    count. *)
val quantifier_rank : t -> int

(** Number of connectives, quantifiers, binders and atoms. *)
val size : t -> int

(** Free first-order variables, each listed once, in first-occurrence
    order. *)
val free_vars : t -> string list

(** All first-order variables (free and bound), each listed once. *)
val all_vars : t -> string list

(** [is_sentence f] holds iff [f] has no free variables. *)
val is_sentence : t -> bool

(** The first name listed more than once, if any — a variable list the
    evaluators refuse as a binder or answer order. *)
val repeated : string list -> string option

(** [is_fo f] holds iff [f] has no extension node (counting, fixpoint or
    second-order). *)
val is_fo : t -> bool

(** Signature relations used (relation variables excluded), with the
    arity of each use. *)
val rels_used : t -> (string * int) list

(** [check sg f] checks [f]'s vocabulary against [sg]: every relation
    atom names a declared relation, or a relation variable bound by an
    enclosing [Ifp] or relation quantifier, at its arity; every [Ifp]
    binds distinct variables; every [Mem] names a bound set variable;
    every constant is declared. The error is the first problem met, e.g.
    [undeclared relation "R"]. *)
val check : Signature.t -> t -> (unit, string) result

(** {1 Substitution} *)

(** [subst x u f] capture-avoidingly substitutes term [u] for the free
    occurrences of variable [x] in [f]; variables bound by a quantifier,
    counting quantifier or fixpoint are renamed with {!fresh_var} when
    needed. *)
val subst : string -> Term.t -> t -> t

(** [fresh_var avoid base] is a variable name not in [avoid], derived from
    [base]. *)
val fresh_var : string list -> string -> string

(** {1 Traversal} *)

(** The immediate subformulas, left to right. *)
val subformulas : t -> t list

(** [map_sub g f] applies [g] to each immediate subformula of [f]. *)
val map_sub : (t -> t) -> t -> t

(** {1 Common sentences} *)

(** [at_least n] = "the domain has at least [n] elements" — the falsifier
    family λn of finite compactness (slide 29). Quantifier rank [n]. *)
val at_least : int -> t

(** [at_most n] = "the domain has at most [n] elements". *)
val at_most : int -> t

(** [exactly n] = "the domain has exactly [n] elements". *)
val exactly : int -> t

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string
