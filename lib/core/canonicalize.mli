(** Canonicalization: constant folding, algebraic identities, constant
    control-flow simplification and dead-code elimination (pure ops, and
    [scf.if]/[scf.for] ops that hold nothing else).  These are
    deliberately generic transformations: the barrier semantics are
    designed so that passes like this keep working unmodified in code
    containing [polygeist.barrier]. *)

(** Run to fixpoint over a module, in place. *)
val run : Ir.Op.op -> unit
