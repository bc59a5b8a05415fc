(** Operations of the mini-MLIR.

    An operation has operands (SSA uses), results (SSA definitions),
    nested regions and attributes.  Regions carry block arguments (loop
    induction variables, function parameters) and a straight-line body —
    the IR is restricted to {e structured} control flow, like the paper's
    SCF-level representation, so no basic-block CFG exists.

    Dialects are encoded in {!kind}:
    - arith/math: [Constant], [Binop], [Cmp], [Select], [Cast], [Math]
    - memref: [Alloc], [Alloca], [Dealloc], [Load], [Store], [Copy], [Dim]
    - scf: [For], [While], [If], [Parallel]
    - func: [Func], [Call], [Return]
    - polygeist: [Barrier]
    - omp: [OmpParallel], [OmpWsloop], [OmpBarrier] *)

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Rem
  | Min
  | Max
  | And
  | Or
  | Xor
  | Shl
  | Shr

type cmp_pred =
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge

type math_fn =
  | Sqrt
  | Exp
  | Log
  | Fabs
  | Floor
  | Neg
  | Not
  | Sin
  | Cos
  | Tanh
  | Erf
  | Pow (** two operands *)
  | Log2

type const =
  | Cint of int * Types.dtype
  | Cfloat of float * Types.dtype

(** Which level of the SIMT hierarchy a parallel loop iterates: [Grid]
    ranges over blocks, [Block] over the threads of one block (the level
    barriers synchronize), [Flat] is a generic/collapsed parallel loop
    with no synchronization inside. *)
type par_kind =
  | Grid
  | Block
  | Flat

type attr =
  | Aint of int
  | Afloat of float
  | Astr of string
  | Abool of bool

type kind =
  | Module
  | Func of
      { name : string
      ; ret : Types.typ option
      }
  | Return
  | Call of string
  | Constant of const
  | Binop of binop
  | Cmp of cmp_pred
  | Select
  | Cast of Types.dtype
  | Math of math_fn
  | Alloc (** heap; operands are the dynamic extents *)
  | Alloca (** stack; static shape only *)
  | Dealloc
  | Load (** operands: memref, indices... *)
  | Store (** operands: value, memref, indices... *)
  | Copy (** operands: src, dst *)
  | Dim of int
  | For
    (** operands: lo, hi, step, inits; region args: the iv, then one
        iter_arg per init; one result per iter_arg.  With iter_args the
        body ends in a [Yield] of the next iteration's values; a
        zero-trip loop returns its inits. *)
  | While (** regions: cond (ends in [Condition]), body *)
  | If
    (** operand: cond (i1); regions: then, else.  With results, both
        regions end in a [Yield] of the result values. *)
  | Parallel of par_kind
    (** operands: lbs, ubs, steps (n each); region args: the n ivs *)
  | Barrier (** [polygeist.barrier] *)
  | Yield
  | Condition (** operand: i1; terminator of a While cond region *)
  | OmpParallel (** region executed by every thread of the team *)
  | OmpWsloop
    (** like [Parallel Flat] but iterations are shared across the team;
        carries NO implicit trailing barrier *)
  | OmpBarrier

type op =
  { oid : int (** unique id; op identity *)
  ; kind : kind
  ; mutable operands : Value.t array
  ; results : Value.t array
  ; mutable regions : region array
  ; mutable attrs : (string * attr) list
  ; mutable loc : Srcloc.t option
    (** source position of the frontend construct this op was lowered
        from; [None] for ops synthesized by transformation passes *)
  }

and region =
  { mutable rargs : Value.t array
  ; mutable body : op list
  }

(** Allocate an op with a fresh [oid]. *)
val mk :
  ?operands:Value.t array ->
  ?results:Value.t array ->
  ?regions:region array ->
  ?attrs:(string * attr) list ->
  ?loc:Srcloc.t ->
  kind ->
  op

(** ["line:col"] of the op's location, or ["?:?"] if unknown. *)
val loc_string : op -> string

val region : ?args:Value.t array -> op list -> region

val attr_int : op -> string -> int option
val set_attr : op -> string -> attr -> unit

(** The op's single result. @raise Invalid_argument otherwise. *)
val result : op -> Value.t

(** Accessors for [Parallel]/[OmpWsloop] bounds (n = number of ivs). *)
val par_dims : op -> int

val par_lo : op -> int -> Value.t
val par_hi : op -> int -> Value.t
val par_step : op -> int -> Value.t

(** Accessors for [For]. *)
val for_lo : op -> Value.t

val for_hi : op -> Value.t
val for_step : op -> Value.t
val for_iv : op -> Value.t

(** The init operands and region iter_args of a [For] (after lo/hi/step
    and after the iv). *)
val for_inits : op -> Value.t array

val for_iter_args : op -> Value.t array

(** The trailing [Yield] of a region, if it ends in one, and its
    operands ([[||]] when it has none). *)
val region_yield : region -> op option

val yielded : region -> Value.t array

(** An [If] with results or a [For] with iter_args. *)
val carries_values : op -> bool

(** Barrier, parallel, [omp.*] and [While] ops: none may be nested inside
    an op that {!carries_values}. *)
val blocks_carry : op -> bool

(** Constants, arithmetic ([Binop], [Cmp], [Select], [Cast], [Math]) and
    [Dim]: ops with no effect but their result.  An integer division may
    still trap ({!Interp.Scalar.may_trap}). *)
val is_pure : op -> bool

val body_region : op -> region

(** Pre-order traversal of the op and everything nested inside it. *)
val iter : (op -> unit) -> op -> unit

val iter_region : (op -> unit) -> region -> unit

val exists : (op -> bool) -> op -> bool
val contains_barrier_region : region -> bool
val contains_barrier : op -> bool

(** Functions of a module, in order. @raise Invalid_argument otherwise. *)
val funcs : op -> op list

val find_func : op -> string -> op option

(** @raise Invalid_argument if not a [Func]. *)
val func_name : op -> string

val binop_to_string : binop -> string
val cmp_to_string : cmp_pred -> string
val math_to_string : math_fn -> string
val par_kind_to_string : par_kind -> string
