(** Affine forms over SSA values, used to reason about memory addresses
    around barriers (Sec. III-A of the paper): linear combinations
    [sum coeff_i * v_i + const] whose variables are thread induction
    variables or thread-invariant symbols. *)

module VM : Map.S with type key = Ir.Value.t

type expr =
  { terms : int VM.t (** coefficient per variable; never 0 *)
  ; const : int
  }

val const : int -> expr
val var : Ir.Value.t -> expr
val add : expr -> expr -> expr
val sub : expr -> expr -> expr
val scale : int -> expr -> expr
val equal : expr -> expr -> bool
val coeff : expr -> Ir.Value.t -> int
val is_const : expr -> bool
val variables : expr -> Ir.Value.t list

(** Derive the affine form of a value by walking its def chain through
    pure integer arithmetic.  [classify] labels each leaf: [`Sym] usable
    as a variable, [`Expand] look through the defining op, [`Opaque] not
    expressible (derivation returns [None]). *)
val of_value :
  Info.t ->
  classify:(Ir.Value.t -> [ `Sym | `Expand | `Opaque ]) ->
  Ir.Value.t ->
  expr option

(** Verdict when comparing one index dimension of two accesses evaluated
    in two (possibly different) threads:
    - [Disjoint]: the dimension can never be equal — no conflict at all;
    - [Forces s]: equality implies [t1.v = t2.v] for each thread iv in
      [s] (the paper's injectivity argument, Fig. 5); two identical
      thread-free forms give [Forces] of the empty set;
    - [Maybe]: may coincide for distinct threads (e.g. the offset-by-one
      case). *)
type dim_verdict =
  | Disjoint
  | Forces of Ir.Value.Set.t
  | Maybe

(** [extent] gives the static trip count of a thread iv (iv ranges over
    [0, extent)), enabling the mixed-radix injectivity argument for
    linearized indices over several ivs (e.g. [ty * BX + tx]): when every
    coefficient dominates the reach of the smaller terms, equality forces
    ALL involved ivs equal. *)
val compare_dim :
  tids:Ir.Value.Set.t ->
  ?extent:(Ir.Value.t -> int option) ->
  expr ->
  expr ->
  dim_verdict
