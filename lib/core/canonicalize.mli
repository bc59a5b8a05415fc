(** Canonicalization: constant folding, algebraic identities, integer
    range facts, constant control-flow simplification and dead-code
    elimination (pure ops that cannot trap, and [scf.if]/[scf.for] ops
    that hold nothing else).  Range facts from constants, loop bounds
    and i1 types fold the integer ops and comparisons they decide, turn
    divisions and remainders of non-negative values by powers of two
    into shifts and masks, and inline loops that run once.  Folds,
    identities and rewrites preserve every engine's result bit for bit,
    traps included ({!Interp.Scalar}).  These are
    deliberately generic transformations: the barrier semantics are
    designed so that passes like this keep working unmodified in code
    containing [polygeist.barrier]. *)

(** Run to fixpoint over a module, in place. *)
val run : Ir.Op.op -> unit
