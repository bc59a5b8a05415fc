(** Canonicalization: constant folding, algebraic identities, constant
    control-flow simplification and dead-code elimination (pure ops that
    cannot trap, and [scf.if]/[scf.for] ops that hold nothing else).
    Folds and identities preserve every engine's result bit for bit,
    traps included ({!Interp.Scalar}).  These are
    deliberately generic transformations: the barrier semantics are
    designed so that passes like this keep working unmodified in code
    containing [polygeist.barrier]. *)

(** Run to fixpoint over a module, in place. *)
val run : Ir.Op.op -> unit
