(* Lowering of the mini-CUDA AST into the parallel IR, following Sec. III
   of the paper.  A kernel launch becomes, directly at the host call site:

     scf.parallel<grid> (%bx,%by,%bz) = (0,0,0) to (gx,gy,gz) {
       %shared.. = memref.alloca        // one per __shared__ declaration
       scf.parallel<block> (%tx,%ty,%tz) = (0,0,0) to (bx,by,bz) {
         <kernel body with __syncthreads -> polygeist.barrier>
       }
     }

   Mutable C locals become rank-0 allocas with loads/stores (Polygeist
   does the same); the mem2reg pass later promotes them to SSA values —
   scf.if results and scf.for iter_args where control flow merges — and
   forwards across barriers.  [&&], [||] and [?:] lower to arith ops
   when the lazily evaluated side cannot fault, and to a value-yielding
   scf.if otherwise (a slot only when that side synchronizes).
   Canonical [for] loops are raised to [scf.for] with an SSA induction
   variable; everything else becomes [scf.while]. *)

open Ir

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let dtype_of_ctype = function
  | Ast.Tbool -> Types.I1
  | Ast.Tint | Ast.Tlong -> Types.Index
  | Ast.Tfloat -> Types.F32
  | Ast.Tdouble -> Types.F64
  | Ast.Tvoid -> fail "void has no runtime type"
  | Ast.Tptr _ -> fail "pointer is not a scalar type"

type varinfo =
  | Direct of Value.t * Ast.ctype (* immutable SSA: loop iv, pointer param *)
  | Slot of Value.t * Ast.ctype (* rank-0 memref holding a mutable scalar *)
  | Arr of Value.t * Ast.ctype (* rank-n memref; ctype is the element type *)

type simt =
  { tid : Value.t array (* threadIdx.{x,y,z} *)
  ; bid : Value.t array
  ; bdim : Value.t array
  ; gdim : Value.t array
  ; shfl_scratch : Value.t option
    (* per-block scratch backing the warp shuffle emulation *)
  ; block_size : Value.t option (* bx*by*bz, for shuffle bounds *)
  }

type env =
  { program : Ast.program
  ; mutable vars : (string * varinfo) list
  ; mutable seq : Builder.Seq.t
  ; simt : simt option
  ; mutable cur_loc : Srcloc.t
    (* location of the statement currently being lowered; stamped onto
       every op emitted for it *)
  }

let lookup env name =
  match List.assoc_opt name env.vars with
  | Some v -> v
  | None -> fail "undeclared identifier '%s'" name

let bind env name info = env.vars <- (name, info) :: env.vars

let scoped env f =
  let saved = env.vars in
  let r = f () in
  env.vars <- saved;
  r

let locate env (op : Op.op) =
  if op.loc = None && Srcloc.is_known env.cur_loc then
    op.loc <- Some env.cur_loc;
  op

let emit env op = ignore (Builder.Seq.emit env.seq (locate env op))
let emitv env op = Builder.Seq.emitv env.seq (locate env op)

(* Emit into a fresh sequence, returning the op list (and, for
   [in_seq_v], [f]'s result). *)
let in_seq_v env f =
  let saved = env.seq in
  env.seq <- Builder.Seq.create ();
  let r = f () in
  let ops = Builder.Seq.to_list env.seq in
  env.seq <- saved;
  (ops, r)

let in_seq env f = fst (in_seq_v env f)

(* [c ? a : b] where each arm is ops computing a value of dtype [dt],
   only the taken arm running: a value-yielding scf.if.  An arm holding
   a barrier (a shuffle or [__syncwarp]) cannot sit inside an op with
   results, so then the arms store into a scratch slot read after a
   plain scf.if. *)
let lazy_select env (c : Value.t) (dt : Types.dtype) (a_ops, (av : Value.t))
    (b_ops, (bv : Value.t)) : Value.t =
  if List.exists (Op.exists Op.blocks_carry) (a_ops @ b_ops) then begin
    let slot = emitv env (Builder.alloca dt []) in
    let arm ops v = ops @ [ locate env (Builder.store v slot []) ] in
    emit env (Builder.if_ c (arm a_ops av) ~else_:(arm b_ops bv));
    emitv env (Builder.load slot [])
  end
  else begin
    let arm ops v = ops @ [ locate env (Builder.yield_ [ v ]) ] in
    emitv env
      (Builder.if_ ~results:[ Types.Scalar dt ] c (arm a_ops av)
         ~else_:(arm b_ops bv))
  end

let find_fn env name =
  List.find_opt (fun (f : Ast.func) -> f.fn_name = name) env.program

(* --- constant evaluation (for shared array dims) --- *)

let rec eval_const (e : Ast.expr) : int option =
  match e with
  | Ast.E_int n -> Some n
  | Ast.E_bin (op, a, b) -> begin
    match eval_const a, eval_const b with
    | Some a, Some b -> begin
      match op with
      | Ast.Badd -> Some (a + b)
      | Ast.Bsub -> Some (a - b)
      | Ast.Bmul -> Some (a * b)
      | Ast.Bdiv -> if b = 0 then None else Some (a / b)
      | Ast.Bmod -> if b = 0 then None else Some (a mod b)
      | Ast.Bshl -> Some (a lsl b)
      | Ast.Bshr -> Some (a asr b)
      | _ -> None
    end
    | _ -> None
  end
  | Ast.E_un (Ast.Uneg, a) -> Option.map (fun x -> -x) (eval_const a)
  | Ast.E_cast (_, a) -> eval_const a
  | _ -> None

(* Can [e] be evaluated whether or not C's lazy operators would reach
   it, with no observable difference?  No memory load, call or
   assignment, and no division or remainder by anything but a nonzero
   literal.  Reading a scalar local is fine: its slot cannot fault. *)
let rec eager_safe (e : Ast.expr) : bool =
  match e with
  | Ast.E_int _ | Ast.E_float _ | Ast.E_id _ | Ast.E_builtin _ -> true
  | Ast.E_bin ((Ast.Bdiv | Ast.Bmod), a, b) ->
    eager_safe a
    && (match b with Ast.E_int n -> n <> 0 | Ast.E_float _ -> true | _ -> false)
  | Ast.E_bin (_, a, b) -> eager_safe a && eager_safe b
  | Ast.E_un (_, a) | Ast.E_cast (_, a) -> eager_safe a
  | Ast.E_cond (c, a, b) -> eager_safe c && eager_safe a && eager_safe b
  | Ast.E_index _ | Ast.E_deref _ | Ast.E_call _ | Ast.E_assign _
  | Ast.E_opassign _ | Ast.E_incr _ | Ast.E_decr _ ->
    false

(* --- numeric coercions --- *)

let unify_arith (ta : Ast.ctype) (tb : Ast.ctype) : Ast.ctype =
  match ta, tb with
  | Ast.Tdouble, _ | _, Ast.Tdouble -> Ast.Tdouble
  | Ast.Tfloat, _ | _, Ast.Tfloat -> Ast.Tfloat
  | Ast.Tlong, _ | _, Ast.Tlong -> Ast.Tlong
  | _ -> Ast.Tint

let coerce env (v : Value.t) (from_ : Ast.ctype) (to_ : Ast.ctype) : Value.t =
  match from_, to_ with
  | a, b when a = b -> v
  | (Ast.Tint | Ast.Tlong), (Ast.Tint | Ast.Tlong) -> v
  | Ast.Tbool, (Ast.Tint | Ast.Tlong) -> emitv env (Builder.cast Types.Index v)
  | (Ast.Tint | Ast.Tlong | Ast.Tbool), (Ast.Tfloat | Ast.Tdouble) ->
    emitv env (Builder.cast (dtype_of_ctype to_) v)
  | (Ast.Tfloat | Ast.Tdouble), (Ast.Tint | Ast.Tlong) ->
    emitv env (Builder.cast Types.Index v)
  | (Ast.Tfloat | Ast.Tdouble), (Ast.Tfloat | Ast.Tdouble) ->
    emitv env (Builder.cast (dtype_of_ctype to_) v)
  | (Ast.Tint | Ast.Tlong | Ast.Tfloat | Ast.Tdouble), Ast.Tbool ->
    let zero =
      if Ast.is_float_type from_ then
        emitv env (Builder.const_float ~dtype:(dtype_of_ctype from_) 0.0)
      else emitv env (Builder.const_int 0)
    in
    emitv env (Builder.cmp Op.Ne v zero)
  | Ast.Tptr _, Ast.Tptr _ -> v
  | _ -> fail "unsupported conversion %s -> %s" (Ast.ctype_to_string from_)
           (Ast.ctype_to_string to_)

(* --- expression codegen --- *)

let warp_size = 32

(* Does the statement tree call a warp-level primitive?  If so the launch
   allocates a per-block scratch buffer for the shuffle emulation. *)
let rec uses_warp_primitive (s : Ast.stmt) : bool =
  let rec in_expr = function
    | Ast.E_call (("__shfl_down_sync" | "__shfl_up_sync" | "__shfl_xor_sync"), _)
      ->
      true
    | Ast.E_call (_, l) -> List.exists in_expr l
    | Ast.E_bin (_, a, b) | Ast.E_assign (a, b) | Ast.E_opassign (_, a, b) ->
      in_expr a || in_expr b
    | Ast.E_un (_, a) | Ast.E_deref a | Ast.E_cast (_, a) | Ast.E_incr a
    | Ast.E_decr a ->
      in_expr a
    | Ast.E_cond (a, b, c) -> in_expr a || in_expr b || in_expr c
    | Ast.E_index (a, l) -> in_expr a || List.exists in_expr l
    | Ast.E_int _ | Ast.E_float _ | Ast.E_id _ | Ast.E_builtin _ -> false
  in
  match s.s with
  | Ast.S_decl { d_init = Some e; _ } -> in_expr e
  | Ast.S_decl _ | Ast.S_sync | Ast.S_return None -> false
  | Ast.S_expr e | Ast.S_return (Some e) -> in_expr e
  | Ast.S_if (c, a, b) ->
    in_expr c || List.exists uses_warp_primitive (a @ b)
  | Ast.S_for (h, b) | Ast.S_omp_for (h, b) ->
    Option.fold ~none:false ~some:in_expr h.f_cond
    || Option.fold ~none:false ~some:in_expr h.f_step
    || Option.fold ~none:false ~some:uses_warp_primitive h.f_init
    || List.exists uses_warp_primitive b
  | Ast.S_while (c, b) | Ast.S_do_while (b, c) ->
    in_expr c || List.exists uses_warp_primitive b
  | Ast.S_block b -> List.exists uses_warp_primitive b
  | Ast.S_launch (_, _, _, args) -> List.exists in_expr args

let math_builtins =
  [ "sqrtf", Op.Sqrt; "sqrt", Op.Sqrt; "expf", Op.Exp; "exp", Op.Exp
  ; "logf", Op.Log; "log", Op.Log; "log2f", Op.Log2; "log2", Op.Log2
  ; "fabsf", Op.Fabs; "fabs", Op.Fabs; "floorf", Op.Floor; "floor", Op.Floor
  ; "sinf", Op.Sin; "sin", Op.Sin; "cosf", Op.Cos; "cos", Op.Cos
  ; "tanhf", Op.Tanh; "tanh", Op.Tanh; "erff", Op.Erf; "erf", Op.Erf
  ]

let rec gen_expr env (e : Ast.expr) : Value.t * Ast.ctype =
  match e with
  | Ast.E_int n -> (emitv env (Builder.const_int n), Ast.Tint)
  | Ast.E_float (f, is_double) ->
    let d = if is_double then Types.F64 else Types.F32 in
    (emitv env (Builder.const_float ~dtype:d f), if is_double then Ast.Tdouble else Ast.Tfloat)
  | Ast.E_id name -> begin
    match lookup env name with
    | Direct (v, ct) -> (v, ct)
    | Slot (m, ct) -> (emitv env (Builder.load m []), ct)
    | Arr (m, elem) -> (m, Ast.Tptr elem)
  end
  | Ast.E_builtin (b, d) -> begin
    match env.simt with
    | None -> fail "SIMT builtin used outside a kernel"
    | Some s ->
      let i = match d with Ast.X -> 0 | Ast.Y -> 1 | Ast.Z -> 2 in
      let arr =
        match b with
        | Ast.Thread_idx -> s.tid
        | Ast.Block_idx -> s.bid
        | Ast.Block_dim -> s.bdim
        | Ast.Grid_dim -> s.gdim
      in
      (arr.(i), Ast.Tint)
  end
  | Ast.E_bin ((Ast.Bland | Ast.Blor) as op, a, b) -> gen_shortcircuit env op a b
  | Ast.E_bin (op, a, b) -> gen_binop env op a b
  | Ast.E_un (Ast.Uneg, a) ->
    let v, t = gen_expr env a in
    if Ast.is_float_type t then (emitv env (Builder.math Op.Neg [ v ]), t)
    else begin
      let z = emitv env (Builder.const_int 0) in
      (emitv env (Builder.binop Op.Sub z v), t)
    end
  | Ast.E_un (Ast.Unot, a) ->
    let v, t = gen_expr env a in
    let b = coerce env v t Ast.Tbool in
    let one = emitv env (Builder.const_int ~dtype:Types.I1 1) in
    (emitv env (Builder.binop Op.Xor b one), Ast.Tbool)
  | Ast.E_un (Ast.Ubnot, a) ->
    let v, t = gen_expr env a in
    let m1 = emitv env (Builder.const_int (-1)) in
    (emitv env (Builder.binop Op.Xor v m1), t)
  | Ast.E_deref e' -> begin
    (* *(p + off) is p[off] *)
    match e' with
    | Ast.E_bin (Ast.Badd, p, off) -> gen_expr env (Ast.E_index (p, [ off ]))
    | _ -> gen_expr env (Ast.E_index (e', [ Ast.E_int 0 ]))
  end
  | Ast.E_index _ ->
    let base, idxs, elem = gen_lvalue_mem env e in
    (emitv env (Builder.load base idxs), elem)
  | Ast.E_cast (t, e') -> gen_cast env t e'
  | Ast.E_cond (c, a, b) ->
    let cv, ct = gen_expr env c in
    let cb = coerce env cv ct Ast.Tbool in
    if eager_safe a && eager_safe b then begin
      let av, at = gen_expr env a in
      let bv, bt = gen_expr env b in
      let t = unify_arith at bt in
      let av = coerce env av at t in
      let bv = coerce env bv bt t in
      (emitv env (Builder.select cb av bv), t)
    end
    else begin
      (* C's ternary is lazy: an arm may guard an out-of-bounds access,
         so each arm lowers into its own region of an scf.if *)
      let a_ops, (av, at) = in_seq_v env (fun () -> gen_expr env a) in
      let b_ops, (bv, bt) = in_seq_v env (fun () -> gen_expr env b) in
      let t = unify_arith at bt in
      let a_cast, av' = in_seq_v env (fun () -> coerce env av at t) in
      let b_cast, bv' = in_seq_v env (fun () -> coerce env bv bt t) in
      ( lazy_select env cb (dtype_of_ctype t) (a_ops @ a_cast, av')
          (b_ops @ b_cast, bv')
      , t )
    end
  | Ast.E_assign (lhs, rhs) ->
    let v, t = gen_expr env rhs in
    gen_store env lhs v t
  | Ast.E_opassign (op, lhs, rhs) ->
    let cur, _ = gen_expr env lhs in
    ignore cur;
    gen_expr env (Ast.E_assign (lhs, Ast.E_bin (op, lhs, rhs)))
  | Ast.E_incr lhs ->
    gen_expr env (Ast.E_assign (lhs, Ast.E_bin (Ast.Badd, lhs, Ast.E_int 1)))
  | Ast.E_decr lhs ->
    gen_expr env (Ast.E_assign (lhs, Ast.E_bin (Ast.Bsub, lhs, Ast.E_int 1)))
  | Ast.E_call (name, args) -> gen_call env name args

(* Warp shuffle emulation (the warp-level primitives COX handles): every
   thread publishes its value in a per-block scratch slot, a block barrier
   (stronger than the warp sync the primitive implies) orders the
   exchange, and each thread reads its partner's slot.  Out-of-warp
   partners return the thread's own value, as CUDA specifies.  Shuffles
   must sit in uniform control flow, which CUDA requires anyway. *)
and gen_shuffle env (name : string) (v_expr : Ast.expr)
    (lane_expr : Ast.expr) : Value.t * Ast.ctype =
  match env.simt with
  | None -> fail "%s outside a kernel" name
  | Some simt -> begin
    match simt.shfl_scratch, simt.block_size with
    | Some scratch, Some bsize ->
      let v, vt = gen_expr env v_expr in
      let v = coerce env v vt Ast.Tfloat in
      let d, dt = gen_expr env lane_expr in
      let d = coerce env d dt Ast.Tint in
      (* linear thread id within the block *)
      let bx = simt.bdim.(0) and by = simt.bdim.(1) in
      let tz_part = emitv env (Builder.binop Op.Mul simt.tid.(2) by) in
      let yz = emitv env (Builder.binop Op.Add simt.tid.(1) tz_part) in
      let yz_scaled = emitv env (Builder.binop Op.Mul yz bx) in
      let lin = emitv env (Builder.binop Op.Add simt.tid.(0) yz_scaled) in
      let cw = emitv env (Builder.const_int warp_size) in
      let lane = emitv env (Builder.binop Op.Rem lin cw) in
      emit env (Builder.store v scratch [ lin ]);
      emit env (Builder.barrier ());
      let target_lane =
        match name with
        | "__shfl_down_sync" -> emitv env (Builder.binop Op.Add lane d)
        | "__shfl_up_sync" -> emitv env (Builder.binop Op.Sub lane d)
        | _ -> emitv env (Builder.binop Op.Xor lane d)
      in
      let c0 = emitv env (Builder.const_int 0) in
      let in_warp_lo = emitv env (Builder.cmp Op.Ge target_lane c0) in
      let in_warp_hi = emitv env (Builder.cmp Op.Lt target_lane cw) in
      let in_warp = emitv env (Builder.binop Op.And in_warp_lo in_warp_hi) in
      let base = emitv env (Builder.binop Op.Sub lin lane) in
      let partner = emitv env (Builder.binop Op.Add base target_lane) in
      let c1b = emitv env (Builder.const_int 1) in
      let bmax = emitv env (Builder.binop Op.Sub bsize c1b) in
      let clamped0 = emitv env (Builder.binop Op.Max partner c0) in
      let clamped = emitv env (Builder.binop Op.Min clamped0 bmax) in
      let in_block = emitv env (Builder.cmp Op.Lt partner bsize) in
      let ok = emitv env (Builder.binop Op.And in_warp in_block) in
      let ld = emitv env (Builder.load scratch [ clamped ]) in
      let res = emitv env (Builder.select ok ld v) in
      (* a second barrier keeps later scratch writes from racing earlier
         reads *)
      emit env (Builder.barrier ());
      (res, Ast.Tfloat)
    | _ -> fail "internal: shuffle scratch missing"
  end

and gen_store env (lhs : Ast.expr) (v : Value.t) (t : Ast.ctype) :
  Value.t * Ast.ctype =
  match lhs with
  | Ast.E_id name -> begin
    match lookup env name with
    | Slot (m, ct) ->
      let v' = coerce env v t ct in
      emit env (Builder.store v' m []);
      (v', ct)
    | Direct _ -> fail "cannot assign to immutable binding '%s'" name
    | Arr _ -> fail "cannot assign to array '%s'" name
  end
  | Ast.E_index _ | Ast.E_deref _ ->
    let base, idxs, elem = gen_lvalue_mem env lhs in
    let v' = coerce env v t elem in
    emit env (Builder.store v' base idxs);
    (v', elem)
  | _ -> fail "unsupported assignment target"

and gen_lvalue_mem env (e : Ast.expr) : Value.t * Value.t list * Ast.ctype =
  match e with
  | Ast.E_deref (Ast.E_bin (Ast.Badd, p, off)) ->
    gen_lvalue_mem env (Ast.E_index (p, [ off ]))
  | Ast.E_deref p -> gen_lvalue_mem env (Ast.E_index (p, [ Ast.E_int 0 ]))
  | Ast.E_index (base, idxs) ->
    let bv, bt = gen_expr env base in
    let elem =
      match bt with
      | Ast.Tptr t -> t
      | _ -> fail "indexing a non-pointer value"
    in
    let rank = Types.rank bv.typ in
    if List.length idxs <> rank then
      fail "expected %d indices, got %d" rank (List.length idxs);
    let idxs =
      List.map
        (fun i ->
          let v, t = gen_expr env i in
          coerce env v t Ast.Tint)
        idxs
    in
    (bv, idxs, elem)
  | _ -> fail "unsupported memory lvalue"

and gen_binop env op a b : Value.t * Ast.ctype =
  let av, at = gen_expr env a in
  let bv, bt = gen_expr env b in
  let arith kind =
    let t = unify_arith at bt in
    let av = coerce env av at t in
    let bv = coerce env bv bt t in
    (emitv env (Builder.binop kind av bv), t)
  in
  let int_only kind =
    if Ast.is_float_type at || Ast.is_float_type bt then
      fail "bitwise operator on float";
    let av = coerce env av at Ast.Tint in
    let bv = coerce env bv bt Ast.Tint in
    (emitv env (Builder.binop kind av bv), Ast.Tint)
  in
  let compare pred =
    let t = unify_arith at bt in
    let av = coerce env av at t in
    let bv = coerce env bv bt t in
    (emitv env (Builder.cmp pred av bv), Ast.Tbool)
  in
  match op with
  | Ast.Badd -> arith Op.Add
  | Ast.Bsub -> arith Op.Sub
  | Ast.Bmul -> arith Op.Mul
  | Ast.Bdiv -> arith Op.Div
  | Ast.Bmod -> int_only Op.Rem
  | Ast.Bband -> int_only Op.And
  | Ast.Bbor -> int_only Op.Or
  | Ast.Bxor -> int_only Op.Xor
  | Ast.Bshl -> int_only Op.Shl
  | Ast.Bshr -> int_only Op.Shr
  | Ast.Blt -> compare Op.Lt
  | Ast.Ble -> compare Op.Le
  | Ast.Bgt -> compare Op.Gt
  | Ast.Bge -> compare Op.Ge
  | Ast.Beq -> compare Op.Eq
  | Ast.Bne -> compare Op.Ne
  | Ast.Bland | Ast.Blor -> assert false

(* [a && b] / [a || b].  When [b] is {!eager_safe} both sides are
   evaluated and combined with [arith.andi]/[ori]; otherwise [b] runs
   only when it decides the result (guarding patterns like
   [i < n && data[i] > 0]), inside an scf.if ({!lazy_select}). *)
and gen_shortcircuit env op a b : Value.t * Ast.ctype =
  let av, at = gen_expr env a in
  let ab = coerce env av at Ast.Tbool in
  let is_and = match op with Ast.Bland -> true | _ -> false in
  if eager_safe b then begin
    let bv, bt = gen_expr env b in
    let bb = coerce env bv bt Ast.Tbool in
    (emitv env (Builder.binop (if is_and then Op.And else Op.Or) ab bb), Ast.Tbool)
  end
  else begin
    let rhs_ops, bb =
      in_seq_v env (fun () ->
          let bv, bt = gen_expr env b in
          coerce env bv bt Ast.Tbool)
    in
    (* the value when [a] alone decides: false for &&, true for || *)
    let decided =
      emitv env (Builder.const_int ~dtype:Types.I1 (if is_and then 0 else 1))
    in
    let rhs = (rhs_ops, bb) and short = ([], decided) in
    let then_, else_ = if is_and then (rhs, short) else (short, rhs) in
    (lazy_select env ab Types.I1 then_ else_, Ast.Tbool)
  end

and gen_cast env (t : Ast.ctype) (e : Ast.expr) : Value.t * Ast.ctype =
  match t, e with
  (* casting malloc(bytes) to a pointer: allocate count = bytes / sizeof *)
  | Ast.Tptr elem, Ast.E_call ("malloc", [ size ]) ->
    let sv, st = gen_expr env size in
    let sv = coerce env sv st Ast.Tint in
    let bytes = Types.dtype_bytes (dtype_of_ctype elem) in
    let bv = emitv env (Builder.const_int bytes) in
    let count = emitv env (Builder.binop Op.Div sv bv) in
    let a =
      emitv env (Builder.alloc (dtype_of_ctype elem) [ None ] [ count ])
    in
    (a, Ast.Tptr elem)
  | Ast.Tptr _, _ ->
    let v, t' = gen_expr env e in
    (match t' with
     | Ast.Tptr _ -> (v, t)
     | _ -> fail "unsupported pointer cast")
  | _, _ ->
    let v, t' = gen_expr env e in
    (coerce env v t' t, t)

and gen_call env name (args : Ast.expr list) : Value.t * Ast.ctype =
  match name, args with
  | ("min" | "fminf" | "fmin"), [ a; b ] ->
    let av, at = gen_expr env a in
    let bv, bt = gen_expr env b in
    let t = unify_arith at bt in
    (emitv env (Builder.binop Op.Min (coerce env av at t) (coerce env bv bt t)), t)
  | ("max" | "fmaxf" | "fmax"), [ a; b ] ->
    let av, at = gen_expr env a in
    let bv, bt = gen_expr env b in
    let t = unify_arith at bt in
    (emitv env (Builder.binop Op.Max (coerce env av at t) (coerce env bv bt t)), t)
  | ("powf" | "pow"), [ a; b ] ->
    let av, at = gen_expr env a in
    let bv, bt = gen_expr env b in
    let ft = if at = Ast.Tdouble || bt = Ast.Tdouble then Ast.Tdouble else Ast.Tfloat in
    (emitv env (Builder.math Op.Pow [ coerce env av at ft; coerce env bv bt ft ]), ft)
  | "abs", [ a ] ->
    let av, at = gen_expr env a in
    if Ast.is_float_type at then (emitv env (Builder.math Op.Fabs [ av ]), at)
    else begin
      let z = emitv env (Builder.const_int 0) in
      let n = emitv env (Builder.binop Op.Sub z av) in
      (emitv env (Builder.binop Op.Max av n), at)
    end
  | "rsqrtf", [ a ] ->
    let av, at = gen_expr env a in
    let av = coerce env av at Ast.Tfloat in
    let s = emitv env (Builder.math Op.Sqrt [ av ]) in
    let one = emitv env (Builder.const_float 1.0) in
    (emitv env (Builder.binop Op.Div one s), Ast.Tfloat)
  | ("cudaDeviceSynchronize" | "cudaThreadSynchronize"), [] ->
    (emitv env (Builder.const_int 0), Ast.Tint)
  | "__syncwarp", _ -> begin
    (* a block barrier over-synchronizes a warp sync, which is always
       legal (extra barriers only reduce parallelism) *)
    match env.simt with
    | None -> fail "__syncwarp outside a kernel"
    | Some _ ->
      emit env (Builder.barrier ());
      (emitv env (Builder.const_int 0), Ast.Tint)
  end
  | ("__shfl_down_sync" | "__shfl_up_sync" | "__shfl_xor_sync"), [ _mask; v; lane_arg ]
    ->
    gen_shuffle env name v lane_arg
  | "free", [ p ] ->
    let pv, _ = gen_expr env p in
    emit env (Builder.dealloc pv);
    (emitv env (Builder.const_int 0), Ast.Tint)
  | _, _ -> begin
    match List.assoc_opt name math_builtins with
    | Some fn ->
      let a = match args with [ a ] -> a | _ -> fail "%s expects 1 arg" name in
      let av, at = gen_expr env a in
      let ft = if at = Ast.Tdouble then Ast.Tdouble else Ast.Tfloat in
      (emitv env (Builder.math fn [ coerce env av at ft ]), ft)
    | None -> begin
      match find_fn env name with
      | Some f ->
        if List.length args <> List.length f.fn_params then
          fail "call to %s: wrong arity" name;
        let vals =
          List.map2
            (fun (pt, _) a ->
              let v, t = gen_expr env a in
              match pt with
              | Ast.Tptr _ -> v
              | _ -> coerce env v t pt)
            f.fn_params args
        in
        let ret =
          match f.fn_ret with
          | Ast.Tvoid -> None
          | t -> Some (Types.Scalar (dtype_of_ctype t))
        in
        let c = Builder.call name ?ret vals in
        emit env c;
        (match f.fn_ret with
         | Ast.Tvoid -> (emitv env (Builder.const_int 0), Ast.Tint)
         | t -> (Op.result c, t))
      | None -> fail "call to unknown function '%s'" name
    end
  end

(* --- statements --- *)

let rec assigns_var name (s : Ast.stmt) : bool =
  let rec in_expr (e : Ast.expr) =
    match e with
    | Ast.E_assign (Ast.E_id n, _) | Ast.E_opassign (_, Ast.E_id n, _)
    | Ast.E_incr (Ast.E_id n)
    | Ast.E_decr (Ast.E_id n)
      when n = name ->
      true
    | Ast.E_assign (a, b) | Ast.E_opassign (_, a, b) | Ast.E_bin (_, a, b) ->
      in_expr a || in_expr b
    | Ast.E_un (_, a) | Ast.E_deref a | Ast.E_cast (_, a) | Ast.E_incr a
    | Ast.E_decr a ->
      in_expr a
    | Ast.E_cond (a, b, c) -> in_expr a || in_expr b || in_expr c
    | Ast.E_call (_, l) -> List.exists in_expr l
    | Ast.E_index (a, l) -> in_expr a || List.exists in_expr l
    | Ast.E_int _ | Ast.E_float _ | Ast.E_id _ | Ast.E_builtin _ -> false
  in
  match s.s with
  | Ast.S_decl { d_init = Some e; _ } -> in_expr e
  | Ast.S_decl _ -> false
  | Ast.S_expr e -> in_expr e
  | Ast.S_if (c, a, b) ->
    in_expr c || List.exists (assigns_var name) a
    || List.exists (assigns_var name) b
  | Ast.S_for (h, b) | Ast.S_omp_for (h, b) ->
    Option.fold ~none:false ~some:(assigns_var name) h.f_init
    || Option.fold ~none:false ~some:in_expr h.f_cond
    || Option.fold ~none:false ~some:in_expr h.f_step
    || List.exists (assigns_var name) b
  | Ast.S_while (c, b) -> in_expr c || List.exists (assigns_var name) b
  | Ast.S_do_while (b, c) -> in_expr c || List.exists (assigns_var name) b
  | Ast.S_return (Some e) -> in_expr e
  | Ast.S_return None | Ast.S_sync -> false
  | Ast.S_block b -> List.exists (assigns_var name) b
  | Ast.S_launch (_, _, _, args) -> List.exists in_expr args

(* Recognize a canonical counted loop that can be raised to scf.for. *)
type canonical =
  { c_var : string
  ; c_type : Ast.ctype
  ; c_lo : Ast.expr
  ; c_hi : Ast.expr (* exclusive *)
  ; c_step : Ast.expr
  }

let canonical_for (h : Ast.for_header) (body : Ast.stmt list) :
  canonical option =
  let var_and_lo =
    match h.f_init with
    | Some { Ast.s =
               Ast.S_decl
                 { d_name; d_type; d_dims = []; d_init = Some lo
                 ; d_shared = false; _ }
           ; _ }
      when Ast.is_integer_type d_type ->
      Some (d_name, d_type, lo)
    | _ -> None
  in
  match var_and_lo with
  | None -> None
  | Some (name, t, lo) ->
    let hi =
      match h.f_cond with
      | Some (Ast.E_bin (Ast.Blt, Ast.E_id n, hi)) when n = name -> Some hi
      | Some (Ast.E_bin (Ast.Ble, Ast.E_id n, hi)) when n = name ->
        Some (Ast.E_bin (Ast.Badd, hi, Ast.E_int 1))
      | _ -> None
    in
    let step =
      match h.f_step with
      | Some (Ast.E_incr (Ast.E_id n)) when n = name -> Some (Ast.E_int 1)
      | Some (Ast.E_opassign (Ast.Badd, Ast.E_id n, s)) when n = name ->
        Some s
      | Some (Ast.E_assign (Ast.E_id n, Ast.E_bin (Ast.Badd, Ast.E_id n', s)))
        when n = name && n' = name ->
        Some s
      | Some (Ast.E_assign (Ast.E_id n, Ast.E_bin (Ast.Badd, s, Ast.E_id n')))
        when n = name && n' = name ->
        Some s
      | _ -> None
    in
    (* hi and step must not depend on the iv; body must not assign it. *)
    let uses_var e =
      let rec go = function
        | Ast.E_id n -> n = name
        | Ast.E_int _ | Ast.E_float _ | Ast.E_builtin _ -> false
        | Ast.E_bin (_, a, b) | Ast.E_assign (a, b) | Ast.E_opassign (_, a, b)
          -> go a || go b
        | Ast.E_un (_, a) | Ast.E_deref a | Ast.E_cast (_, a) | Ast.E_incr a
        | Ast.E_decr a -> go a
        | Ast.E_cond (a, b, c) -> go a || go b || go c
        | Ast.E_call (_, l) -> List.exists go l
        | Ast.E_index (a, l) -> go a || List.exists go l
      in
      go e
    in
    (match hi, step with
     | Some hi, Some step
       when (not (uses_var hi)) && (not (uses_var step))
            && not (List.exists (assigns_var name) body) ->
       Some { c_var = name; c_type = t; c_lo = lo; c_hi = hi; c_step = step }
     | _ -> None)

let gen_index_expr env e =
  let v, t = gen_expr env e in
  coerce env v t Ast.Tint

let rec gen_stmt env (s : Ast.stmt) : unit =
  env.cur_loc <- s.sloc;
  (* Lowering a body mutates [cur_loc]; reinstate the statement's own
     location before emitting its structured op. *)
  let emit_here env op =
    env.cur_loc <- s.sloc;
    emit env op
  in
  match s.s with
  | Ast.S_decl d -> gen_decl env d
  | Ast.S_expr e -> ignore (gen_expr env e)
  | Ast.S_if (c, then_, else_) ->
    let cv, ct = gen_expr env c in
    let cb = coerce env cv ct Ast.Tbool in
    let then_ops =
      in_seq env (fun () -> scoped env (fun () -> List.iter (gen_stmt env) then_))
    in
    let else_ops =
      in_seq env (fun () -> scoped env (fun () -> List.iter (gen_stmt env) else_))
    in
    emit_here env (Builder.if_ cb then_ops ~else_:else_ops)
  | Ast.S_for (h, body) -> begin
    match canonical_for h body with
    | Some c ->
      let lo = gen_index_expr env c.c_lo in
      let hi = gen_index_expr env c.c_hi in
      let step = gen_index_expr env c.c_step in
      let loop =
        Builder.for_ ~lo ~hi ~step (fun iv ->
            in_seq env (fun () ->
                scoped env (fun () ->
                    bind env c.c_var (Direct (iv, c.c_type));
                    List.iter (gen_stmt env) body)))
      in
      emit_here env loop
    | None ->
      (* generic lowering: { init; while (cond) { body; step; } } *)
      scoped env (fun () ->
          Option.iter (gen_stmt env) h.f_init;
          let cond = match h.f_cond with Some c -> c | None -> Ast.E_int 1 in
          let step =
            match h.f_step with
            | Some e -> [ Ast.like s (Ast.S_expr e) ]
            | None -> []
          in
          gen_stmt env (Ast.like s (Ast.S_while (cond, body @ step))))
  end
  | Ast.S_while (c, body) ->
    let cond_ops =
      in_seq env (fun () ->
          env.cur_loc <- s.sloc;
          let cv, ct = gen_expr env c in
          let cb = coerce env cv ct Ast.Tbool in
          emit env (Builder.condition cb))
    in
    let body_ops =
      in_seq env (fun () -> scoped env (fun () -> List.iter (gen_stmt env) body))
    in
    emit_here env (Builder.while_ ~cond_body:cond_ops ~body:body_ops)
  | Ast.S_do_while (body, c) ->
    (* do-while maps to a while whose condition region performs the body
       first (MLIR scf.while "before" region). *)
    let cond_ops =
      in_seq env (fun () ->
          scoped env (fun () ->
              List.iter (gen_stmt env) body;
              env.cur_loc <- s.sloc;
              let cv, ct = gen_expr env c in
              let cb = coerce env cv ct Ast.Tbool in
              emit env (Builder.condition cb)))
    in
    emit_here env (Builder.while_ ~cond_body:cond_ops ~body:[])
  | Ast.S_return None -> emit env (Builder.return_ [])
  | Ast.S_return (Some e) ->
    let v, _ = gen_expr env e in
    emit env (Builder.return_ [ v ])
  | Ast.S_sync ->
    if env.simt = None then fail "__syncthreads outside a kernel";
    emit env (Builder.barrier ())
  | Ast.S_block b -> scoped env (fun () -> List.iter (gen_stmt env) b)
  | Ast.S_launch (name, grid, block, args) -> gen_launch env name grid block args
  | Ast.S_omp_for (h, body) -> begin
    (* hand-written OpenMP baseline loop: a flat parallel loop *)
    match canonical_for h body with
    | Some c ->
      let lo = gen_index_expr env c.c_lo in
      let hi = gen_index_expr env c.c_hi in
      let step = gen_index_expr env c.c_step in
      let loop =
        Builder.parallel Op.Flat ~lbs:[ lo ] ~ubs:[ hi ] ~steps:[ step ]
          (fun ivs ->
            in_seq env (fun () ->
                scoped env (fun () ->
                    bind env c.c_var (Direct (ivs.(0), c.c_type));
                    List.iter (gen_stmt env) body)))
      in
      emit_here env loop
    | None ->
      fail "#pragma omp parallel for requires a canonical counted loop"
  end

and gen_decl env (d : Ast.decl) : unit =
  if d.d_shared then fail "__shared__ declaration must be at kernel top level";
  match d.d_type with
  | Ast.Tptr _ when d.d_dims = [] ->
    (* Pointer locals are bound immutably to their initializer (pointer
       reassignment is rejected at the later assignment). *)
    let init =
      match d.d_init with
      | Some e -> e
      | None -> fail "pointer variable '%s' must be initialized" d.d_name
    in
    let v, t = gen_expr env init in
    (match t with
     | Ast.Tptr _ -> bind env d.d_name (Direct (v, t))
     | _ -> fail "initializing pointer '%s' with non-pointer" d.d_name)
  | _ -> gen_scalar_or_array_decl env d

and gen_scalar_or_array_decl env (d : Ast.decl) : unit =
  let elem = dtype_of_ctype d.d_type in
  if d.d_dims = [] then begin
    let slot = emitv env (Builder.alloca elem []) in
    bind env d.d_name (Slot (slot, d.d_type));
    match d.d_init with
    | None -> ()
    | Some e ->
      let v, t = gen_expr env e in
      let v = coerce env v t d.d_type in
      emit env (Builder.store v slot [])
  end
  else begin
    let dims =
      List.map
        (fun e ->
          match eval_const e with
          | Some n -> n
          | None -> fail "array dimension of '%s' must be constant" d.d_name)
        d.d_dims
    in
    let arr =
      emitv env (Builder.alloca elem (List.map (fun n -> Some n) dims))
    in
    bind env d.d_name (Arr (arr, d.d_type));
    if d.d_init <> None then fail "array initializers are not supported"
  end

and gen_launch env name (grid : Ast.dim3) (block : Ast.dim3) args : unit =
  let launch_loc = env.cur_loc in
  let kernel =
    match find_fn env name with
    | Some f when f.fn_qual = Ast.Q_global -> Returns.eliminate f
    | Some _ -> fail "launch of non-kernel function '%s'" name
    | None -> fail "launch of unknown kernel '%s'" name
  in
  let dim3_vals (a, b, c) =
    let one () = Ast.E_int 1 in
    [ a
    ; (match b with Some e -> e | None -> one ())
    ; (match c with Some e -> e | None -> one ())
    ]
    |> List.map (gen_index_expr env)
  in
  let gdims = dim3_vals grid in
  let bdims = dim3_vals block in
  (* Evaluate kernel arguments once, in host code. *)
  let arg_vals =
    if List.length args <> List.length kernel.fn_params then
      fail "launch of %s: wrong arity" name
    else
      List.map2
        (fun (pt, _) a ->
          let v, t = gen_expr env a in
          match pt with
          | Ast.Tptr _ -> v
          | _ -> coerce env v t pt)
        kernel.fn_params args
  in
  let c0 = emitv env (Builder.const_int 0) in
  let c1 = emitv env (Builder.const_int 1) in
  (* Split kernel body into top-level __shared__ declarations (hoisted to
     block level, per Sec. III) and the rest. *)
  let shared_decls, rest =
    List.partition
      (fun (s : Ast.stmt) ->
        match s.s with Ast.S_decl { d_shared = true; _ } -> true | _ -> false)
      kernel.fn_body
  in
  (* Reject __shared__ nested deeper than kernel top level. *)
  let rec has_nested_shared (s : Ast.stmt) =
    match s.s with
    | Ast.S_decl { d_shared = true; _ } -> true
    | Ast.S_if (_, a, b) -> List.exists has_nested_shared (a @ b)
    | Ast.S_for (_, b) | Ast.S_while (_, b) | Ast.S_do_while (b, _)
    | Ast.S_block b | Ast.S_omp_for (_, b) ->
      List.exists has_nested_shared b
    | Ast.S_decl _ | Ast.S_expr _ | Ast.S_return _ | Ast.S_sync
    | Ast.S_launch _ ->
      false
  in
  if List.exists has_nested_shared rest then
    fail "__shared__ declaration must be at kernel top level";
  let needs_shfl = List.exists uses_warp_primitive kernel.fn_body in
  let block_size =
    if not needs_shfl then None
    else begin
      match bdims with
      | [ bx; by; bz ] ->
        let p1 = emitv env (Builder.binop Op.Mul bx by) in
        Some (emitv env (Builder.binop Op.Mul p1 bz))
      | _ -> None
    end
  in
  let grid_loop =
    Builder.parallel Op.Grid ~lbs:[ c0; c0; c0 ] ~ubs:gdims
      ~steps:[ c1; c1; c1 ] (fun bids ->
        in_seq env (fun () ->
            scoped env (fun () ->
                (* Warp shuffle emulation scratch, one slot per thread. *)
                let shfl_scratch =
                  match block_size with
                  | Some bs ->
                    Some
                      (emitv env
                         (Builder.alloc ~space:Types.Shared Types.F32 [ None ]
                            [ bs ]))
                  | None -> None
                in
                (* Shared memory: one stack allocation per block. *)
                let shared_bindings =
                  List.map
                    (fun (sd : Ast.stmt) ->
                      match sd.s with
                      | Ast.S_decl d ->
                        let dims =
                          List.map
                            (fun e ->
                              match eval_const e with
                              | Some n -> Some n
                              | None ->
                                fail "shared array dims must be constant")
                            d.d_dims
                        in
                        env.cur_loc <- d.d_loc;
                        let a =
                          emitv env
                            (Builder.alloca ~space:Types.Shared
                               (dtype_of_ctype d.d_type) dims)
                        in
                        (d, a)
                      | _ -> assert false)
                    shared_decls
                in
                let block_loop =
                  Builder.parallel Op.Block ~lbs:[ c0; c0; c0 ] ~ubs:bdims
                    ~steps:[ c1; c1; c1 ] (fun tids ->
                      in_seq env (fun () ->
                          scoped env (fun () ->
                              let simt =
                                { tid = tids
                                ; bid = bids
                                ; bdim = Array.of_list bdims
                                ; gdim = Array.of_list gdims
                                ; shfl_scratch
                                ; block_size
                                }
                              in
                              let env = { env with simt = Some simt } in
                              (* Bind shared arrays and scalars. *)
                              List.iter
                                (fun ((d : Ast.decl), a) ->
                                  if d.d_dims = [] then
                                    bind env d.d_name (Slot (a, d.d_type))
                                  else bind env d.d_name (Arr (a, d.d_type)))
                                shared_bindings;
                              (* Thread-private copies of scalar params. *)
                              env.cur_loc <- kernel.fn_loc;
                              List.iter2
                                (fun (pt, pn) v ->
                                  match pt with
                                  | Ast.Tptr t -> bind env pn (Direct (v, Ast.Tptr t))
                                  | _ ->
                                    let slot =
                                      emitv env
                                        (Builder.alloca (dtype_of_ctype pt) [])
                                    in
                                    emit env (Builder.store v slot []);
                                    bind env pn (Slot (slot, pt)))
                                kernel.fn_params arg_vals;
                              List.iter (gen_stmt env) rest)))
                in
                env.cur_loc <- launch_loc;
                emit env block_loop)))
  in
  env.cur_loc <- launch_loc;
  emit env grid_loop

(* --- functions and modules --- *)

let memref_of_ptr (t : Ast.ctype) : Types.typ =
  match t with
  | Ast.Tptr (Ast.Tptr _) -> fail "pointer-to-pointer parameters unsupported"
  | Ast.Tptr e -> Types.memref (dtype_of_ctype e) [ None ]
  | _ -> Types.Scalar (dtype_of_ctype t)

let gen_func (program : Ast.program) (f : Ast.func) : Op.op =
  let f = Returns.eliminate f in
  let params =
    List.map (fun (t, n) -> (n, memref_of_ptr t)) f.fn_params
  in
  let ret =
    match f.fn_ret with
    | Ast.Tvoid -> None
    | t -> Some (Types.Scalar (dtype_of_ctype t))
  in
  Builder.func f.fn_name params ?ret (fun args ->
      let env =
        { program; vars = []; seq = Builder.Seq.create (); simt = None
        ; cur_loc = f.fn_loc
        }
      in
      (* Scalar parameters are mutable in C: give them slots. *)
      List.iteri
        (fun i (t, n) ->
          match t with
          | Ast.Tptr _ -> bind env n (Direct (args.(i), t))
          | _ ->
            let slot = emitv env (Builder.alloca (dtype_of_ctype t) []) in
            emit env (Builder.store args.(i) slot []);
            bind env n (Slot (slot, t)))
        f.fn_params;
      List.iter (gen_stmt env) f.fn_body;
      let body = Builder.Seq.to_list env.seq in
      (* Ensure a trailing return for void functions. *)
      match f.fn_ret, List.rev body with
      | Ast.Tvoid, ({ kind = Op.Return; _ } :: _) -> body
      | Ast.Tvoid, _ -> body @ [ Builder.return_ [] ]
      | _, ({ kind = Op.Return; _ } :: _) -> body
      | _, _ -> fail "function %s must end with a return" f.fn_name)

(* Compile a whole program.  [__global__] kernels are inlined at their
   launch sites and not emitted as standalone functions. *)
let gen_program (program : Ast.program) : Op.op =
  let funcs =
    List.filter_map
      (fun (f : Ast.func) ->
        match f.fn_qual with
        | Ast.Q_global -> None
        | Ast.Q_device | Ast.Q_host -> Some (gen_func program f))
      program
  in
  Builder.module_ funcs

let compile (src : string) : Op.op =
  let prog = Parser.parse_program src in
  gen_program prog
