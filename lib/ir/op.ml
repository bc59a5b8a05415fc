(* Operations of the mini-MLIR.

   An operation has operands (SSA uses), results (SSA definitions), nested
   regions and attributes.  Regions carry block arguments (e.g. loop
   induction variables) and a straight-line body of operations — the IR is
   restricted to *structured* control flow, as in the paper's
   SCF/affine-level representation, so no basic-block CFG is needed.

   Dialects are encoded in [kind]:
   - arith/math : Constant, Binop, Cmp, Select, Cast, Math
   - memref     : Alloc, Alloca, Dealloc, Load, Store, Copy, Dim
   - scf        : For, While (cond region + body region), If, Parallel
   - func       : Func, Call, Return
   - polygeist  : Barrier (the paper's [polygeist.barrier])
   - omp        : OmpParallel, OmpWsloop, OmpBarrier
   - builtin    : Module, Yield, Condition *)

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
  | Pow (* two operands *)
  | Log2

type const =
  | Cint of int * Types.dtype
  | Cfloat of float * Types.dtype

(* Which level of the SIMT hierarchy a parallel loop iterates.  [Grid]
   ranges over blocks, [Block] over threads of one block (this is the level
   barriers synchronize), [Flat] is a collapsed or generic parallel loop
   with no barrier semantics left inside. *)
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
  | Alloc
  | Alloca
  | Dealloc
  | Load
  | Store (* operands: value, memref, indices... *)
  | Copy (* operands: src, dst memrefs of identical shape *)
  | Dim of int
  | For
    (* operands: lo, hi, step, inits...; region args: [iv; iter_args...];
       results: one per iter_arg; with iter_args the body ends in a
       Yield of the next iteration's values *)
  | While (* regions: [cond (ends in Condition)] [body] *)
  | If
    (* operand: cond; regions: [then] [else]; with results both regions
       end in a Yield of the result values *)
  | Parallel of par_kind (* operands: lo*n, hi*n, step*n; region args: ivs *)
  | Barrier
  | Yield
  | Condition (* operand: i1; terminator of While's cond region *)
  | OmpParallel (* region executed by every thread of the team *)
  | OmpWsloop (* as Parallel Flat but iterations shared across the team *)
  | OmpBarrier

type op =
  { oid : int
  ; kind : kind
  ; mutable operands : Value.t array
  ; results : Value.t array
  ; mutable regions : region array
  ; mutable attrs : (string * attr) list
  ; mutable loc : Srcloc.t option
    (* source position of the frontend construct this op was lowered
       from; [None] for ops synthesized by transformation passes *)
  }

and region =
  { mutable rargs : Value.t array
  ; mutable body : op list
  }

(* Atomic: modules are built concurrently by the compile service's
   executor domains, and op ids must stay unique within each module
   (each lane's sequence is strictly increasing). *)
let op_counter = Atomic.make 0

let mk ?(operands = [||]) ?(results = [||]) ?(regions = [||]) ?(attrs = [])
    ?loc kind =
  { oid = 1 + Atomic.fetch_and_add op_counter 1
  ; kind
  ; operands
  ; results
  ; regions
  ; attrs
  ; loc
  }

let loc_string (op : op) =
  match op.loc with
  | Some l -> Srcloc.to_string l
  | None -> "?:?"

let region ?(args = [||]) body = { rargs = args; body }

let attr op name = List.assoc_opt name op.attrs

let attr_int op name =
  match attr op name with Some (Aint i) -> Some i | _ -> None

let set_attr op name v =
  op.attrs <- (name, v) :: List.remove_assoc name op.attrs

let result op =
  match op.results with
  | [| r |] -> r
  | _ -> invalid_arg "Op.result: op does not have exactly one result"

(* Number of induction variables of a Parallel/OmpWsloop op. *)
let par_dims op = Array.length op.regions.(0).rargs

let par_lo op i = op.operands.(i)
let par_hi op i = op.operands.(par_dims op + i)
let par_step op i = op.operands.(2 * par_dims op + i)

let for_lo op = op.operands.(0)
let for_hi op = op.operands.(1)
let for_step op = op.operands.(2)
let for_iv op = op.regions.(0).rargs.(0)

let for_inits op = Array.sub op.operands 3 (Array.length op.operands - 3)

let for_iter_args op =
  let a = op.regions.(0).rargs in
  Array.sub a 1 (Array.length a - 1)

(* The trailing [scf.yield] of a region, if it ends in one. *)
let region_yield (r : region) =
  let rec last = function
    | [] -> None
    | [ ({ kind = Yield; _ } as y) ] -> Some y
    | [ _ ] -> None
    | _ :: rest -> last rest
  in
  last r.body

let yielded (r : region) =
  match region_yield r with Some y -> y.operands | None -> [||]

(* An [scf.if] with results or an [scf.for] with iter_args: its regions
   hand scalar values to the code after it (and, for the loop, to the
   next iteration) through [scf.yield]. *)
let carries_values op =
  match op.kind with
  | If | For -> Array.length op.results > 0
  | _ -> false

(* Ops no value-carrying op may contain: synchronization, parallel
   loops, the OpenMP dialect and [scf.while].  Keeping them out means
   barrier lowering never has to split or interchange a region whose
   values flow through yields. *)
let blocks_carry op =
  match op.kind with
  | Barrier | Parallel _ | OmpParallel | OmpWsloop | OmpBarrier | While ->
    true
  | _ -> false

(* Ops with no effect but their result: arithmetic, constants and
   [memref.dim].  Some may still trap ([Interp.Scalar.may_trap]). *)
let is_pure op =
  match op.kind with
  | Constant _ | Binop _ | Cmp _ | Select | Cast _ | Math _ | Dim _ -> true
  | _ -> false

let body_region op = op.regions.(0)

(* Structural iteration over an op and everything nested inside it
   (pre-order). *)
let rec iter f op =
  f op;
  Array.iter (fun r -> List.iter (iter f) r.body) op.regions

let iter_region f (r : region) = List.iter (iter f) r.body

let exists p op =
  let found = ref false in
  iter (fun o -> if p o then found := true) op;
  !found

let region_exists p r =
  List.exists (fun o -> exists p o) r.body

let contains_barrier_region r = region_exists (fun o -> o.kind = Barrier) r

let contains_barrier op =
  Array.exists contains_barrier_region op.regions

(* All funcs of a module, in order. *)
let funcs m =
  match m.kind with
  | Module ->
    List.filter (fun o -> match o.kind with Func _ -> true | _ -> false)
      m.regions.(0).body
  | _ -> invalid_arg "Op.funcs: not a module"

let find_func m name =
  List.find_opt
    (fun o -> match o.kind with Func f -> f.name = name | _ -> false)
    (funcs m)

let func_name op =
  match op.kind with
  | Func f -> f.name
  | _ -> invalid_arg "Op.func_name: not a func"

let binop_to_string = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | Div -> "div"
  | Rem -> "rem"
  | Min -> "min"
  | Max -> "max"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"

let cmp_to_string = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let math_to_string = function
  | Sqrt -> "sqrt"
  | Exp -> "exp"
  | Log -> "log"
  | Fabs -> "fabs"
  | Floor -> "floor"
  | Neg -> "neg"
  | Not -> "not"
  | Sin -> "sin"
  | Cos -> "cos"
  | Tanh -> "tanh"
  | Erf -> "erf"
  | Pow -> "pow"
  | Log2 -> "log2"

let par_kind_to_string = function
  | Grid -> "grid"
  | Block -> "block"
  | Flat -> "flat"
