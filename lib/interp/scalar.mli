(** The meaning of a scalar op — its value and where it traps — shared
    by the interpreter, constant folding, the cost model, DCE and LICM.
    The compiled engine's register-specialised closures are pinned to
    {!eval} by a table test.

    Float arithmetic is done in double precision, rounded to f32 only at
    f32 constants and casts to f32. *)

(** Round a double to the nearest f32, kept as a double. *)
val f32 : float -> float

(** [log x /. log 2.0]. *)
val log2 : float -> float

(** The Abramowitz–Stegun approximation of erf. *)
val erf : float -> float

(** The value of an [arith.constant]. *)
val const : Ir.Op.const -> Mem.rv

(** Is the value of a float type?  Decides whether a binop or cmp works
    on floats (by its first operand). *)
val is_float_value : Ir.Value.t -> bool

(** The value of one binop, cmp or cast on its operand values: [eval]'s
    cases, for callers that have the operands at hand.  [is_float] says
    whether the first operand is of a float type. *)
val binop : Ir.Op.binop -> is_float:bool -> Mem.rv -> Mem.rv -> Mem.rv

val cmp : Ir.Op.cmp_pred -> is_float:bool -> Mem.rv -> Mem.rv -> Mem.rv
val cast : Ir.Types.dtype -> Mem.rv -> Mem.rv

(** [eval op args] is the value of a constant, binop, cmp, select, cast
    or math op on operand values [args].
    @raise Mem.Runtime_error exactly where a run of the op fails
    (integer division or modulo by zero, a bitwise op on floats, an
    operand of the wrong kind).
    @raise Invalid_argument on any other op. *)
val eval : Ir.Op.op -> Mem.rv array -> Mem.rv

(** Can the op trap on some operands?  True for an integer division or
    modulo whose divisor is not a nonzero literal; [literal v] is the
    integer constant [v] is known to hold, if any. *)
val may_trap : literal:(Ir.Value.t -> int option) -> Ir.Op.op -> bool
