(* The meaning of a scalar op: its value and where it traps.  This is the
   one definition the interpreter runs, constant folding folds with, the
   cost model partially evaluates with, and DCE and LICM ask before they
   delete or move an op.  The compiled engine keeps register-specialised
   closures of its own; a table test pins them to [eval] bit for bit.

   All float arithmetic is in double precision; f32 rounding happens
   only at f32 constants and casts to f32.  Integer division and modulo
   by zero fail with {!Mem.Runtime_error}. *)

open Ir

let[@inline] f32 x = Int32.float_of_bits (Int32.bits_of_float x)

let[@inline] log2 x = log x /. log 2.0

(* Abramowitz–Stegun approximation; plenty for test kernels. *)
let[@inline] erf x =
  let s = if x < 0.0 then -1.0 else 1.0 in
  let x = Float.abs x in
  let t = 1.0 /. (1.0 +. (0.3275911 *. x)) in
  let y =
    1.0
    -. ((((((1.061405429 *. t) -. 1.453152027) *. t) +. 1.421413741) *. t
         -. 0.284496736)
        *. t
        +. 0.254829592)
       *. t
       *. exp (-.x *. x)
  in
  s *. y

let const = function
  | Op.Cint (n, _) -> Mem.Int n
  | Op.Cfloat (f, Types.F32) -> Mem.Flt (f32 f)
  | Op.Cfloat (f, _) -> Mem.Flt f

let is_float_value (v : Value.t) =
  match v.typ with
  | Types.Scalar d -> Types.is_float_dtype d
  | Types.Memref _ -> false

let binop kind ~is_float a b : Mem.rv =
  if is_float then begin
    let x = Mem.as_float a and y = Mem.as_float b in
    let r =
      match kind with
      | Op.Add -> x +. y
      | Op.Sub -> x -. y
      | Op.Mul -> x *. y
      | Op.Div -> x /. y
      | Op.Rem -> Float.rem x y
      | Op.Min -> Float.min x y
      | Op.Max -> Float.max x y
      | Op.And | Op.Or | Op.Xor | Op.Shl | Op.Shr ->
        Mem.fail "bitwise op on float"
    in
    Mem.Flt r
  end
  else begin
    let x = Mem.as_int a and y = Mem.as_int b in
    let r =
      match kind with
      | Op.Add -> x + y
      | Op.Sub -> x - y
      | Op.Mul -> x * y
      | Op.Div -> if y = 0 then Mem.fail "integer division by zero" else x / y
      | Op.Rem -> if y = 0 then Mem.fail "integer modulo by zero" else x mod y
      | Op.Min -> min x y
      | Op.Max -> max x y
      | Op.And -> x land y
      | Op.Or -> x lor y
      | Op.Xor -> x lxor y
      | Op.Shl -> x lsl y
      | Op.Shr -> x asr y
    in
    Mem.Int r
  end

let cmp pred ~is_float a b : Mem.rv =
  let c =
    if is_float then begin
      let x = Mem.as_float a and y = Mem.as_float b in
      match pred with
      | Op.Eq -> x = y
      | Op.Ne -> x <> y
      | Op.Lt -> x < y
      | Op.Le -> x <= y
      | Op.Gt -> x > y
      | Op.Ge -> x >= y
    end
    else begin
      let x = Mem.as_int a and y = Mem.as_int b in
      match pred with
      | Op.Eq -> x = y
      | Op.Ne -> x <> y
      | Op.Lt -> x < y
      | Op.Le -> x <= y
      | Op.Gt -> x > y
      | Op.Ge -> x >= y
    end
  in
  Mem.Int (if c then 1 else 0)

let math fn (args : Mem.rv array) : Mem.rv =
  let fl f = Mem.Flt (f (Mem.as_float args.(0))) in
  match fn, Array.length args with
  | Op.Not, 1 -> Mem.Int (if Mem.as_int args.(0) = 0 then 1 else 0)
  | Op.Pow, 2 ->
    Mem.Flt (Float.pow (Mem.as_float args.(0)) (Mem.as_float args.(1)))
  | Op.Neg, 1 -> fl Float.neg
  | Op.Sqrt, 1 -> fl sqrt
  | Op.Exp, 1 -> fl exp
  | Op.Log, 1 -> fl log
  | Op.Log2, 1 -> fl log2
  | Op.Fabs, 1 -> fl Float.abs
  | Op.Floor, 1 -> fl Float.floor
  | Op.Sin, 1 -> fl sin
  | Op.Cos, 1 -> fl cos
  | Op.Tanh, 1 -> fl tanh
  | Op.Erf, 1 -> fl erf
  | _ -> Mem.fail "math %s: bad arity" (Op.math_to_string fn)

let cast dtype (v : Mem.rv) : Mem.rv =
  match dtype with
  | Types.F32 -> Mem.Flt (f32 (Mem.as_float v))
  | Types.F64 -> Mem.Flt (Mem.as_float v)
  | Types.I1 -> Mem.Int (if Mem.as_int_or_trunc v <> 0 then 1 else 0)
  | Types.I32 | Types.I64 | Types.Index -> Mem.Int (Mem.as_int_or_trunc v)

let eval (op : Op.op) (args : Mem.rv array) : Mem.rv =
  match op.kind with
  | Op.Constant c -> const c
  | Op.Binop k ->
    binop k ~is_float:(is_float_value op.operands.(0)) args.(0) args.(1)
  | Op.Cmp p ->
    cmp p ~is_float:(is_float_value op.operands.(0)) args.(0) args.(1)
  | Op.Select -> if Mem.as_int args.(0) <> 0 then args.(1) else args.(2)
  | Op.Cast d -> cast d args.(0)
  | Op.Math fn -> math fn args
  | _ -> invalid_arg "Scalar.eval: not a scalar op"

let may_trap ~literal (op : Op.op) =
  match op.kind with
  | Op.Binop (Op.Div | Op.Rem) when not (is_float_value op.operands.(0)) -> (
    match literal op.operands.(1) with Some n -> n = 0 | None -> true)
  | _ -> false
