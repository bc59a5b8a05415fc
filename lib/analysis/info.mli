(** Structural indexes over one op tree: defining ops of SSA values,
    parent links, and containment queries.  Rebuild after the tree
    changes. *)

type def =
  | Def_op of Ir.Op.op (** value is a result of this op *)
  | Def_arg of Ir.Op.op * int (** value is an arg of region [i] of this op *)
  | Def_external (** defined outside the analyzed tree *)

type t

val build : Ir.Op.op -> t
val def : t -> Ir.Value.t -> def
val defining_op : t -> Ir.Value.t -> Ir.Op.op option

(** The literal of the integer [arith.constant] defining the value, if
    that is what defines it. *)
val int_literal : t -> Ir.Value.t -> int option

(** Does the op provably run its body at least once: an [scf.for] whose
    bounds are literals lo < hi?  False for any other op. *)
val trip_nonzero : t -> Ir.Op.op -> bool

val parent : t -> Ir.Op.op -> Ir.Op.op option

(** Is [anc] a (non-strict) ancestor of [op]? *)
val is_ancestor : t -> anc:Ir.Op.op -> Ir.Op.op -> bool

(** Is the value defined inside [container] (result or region arg of it
    or anything nested in it)? *)
val defined_inside : t -> container:Ir.Op.op -> Ir.Value.t -> bool

(** Ancestors of [op] up to (excluding) [stop], innermost first.
    @raise Invalid_argument if [stop] is not an ancestor. *)
val ancestors_up_to : t -> stop:Ir.Op.op -> Ir.Op.op -> Ir.Op.op list

(** The nearest block-parallel loop strictly enclosing the op. *)
val nearest_block_par : t -> Ir.Op.op -> Ir.Op.op option

(** Is the memref a per-thread instance: an allocation, seen through
    casts, made inside a block-parallel loop?  The one definition of
    per-thread memory for the passes and the checks. *)
val thread_private : t -> Ir.Value.t -> bool

(** Serial-loop induction variables strictly between [op] and [stop]. *)
val enclosing_loop_ivs : t -> stop:Ir.Op.op -> Ir.Op.op -> Ir.Value.Set.t
