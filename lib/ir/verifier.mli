(** Structural verifier.  Checks the invariants every pass must preserve:
    single definition per SSA value, lexical def-before-use within the
    region nesting, operand/result/region arities and types per op kind,
    [polygeist.barrier] only inside a block-level parallel loop, and
    [scf.condition] only as the terminator of a while condition region. *)

exception Error of string

(** @raise Error on the first violation. *)
val verify : Op.op -> unit

val verify_result : Op.op -> (unit, string) result
