(* Canonicalization: constant folding, algebraic identities, integer
   range facts, constant control-flow simplification and dead-code
   elimination (pure ops that cannot trap, and scf.if/scf.for ops that
   hold nothing else).  Folds evaluate with {!Interp.Scalar}, the
   semantics every engine runs, and identities are kept only where they
   hold bit for bit.

   Range facts come from integer constants, loop bounds (a launch's
   thread and block extents among them) and i1 types, and flow through
   integer arithmetic.  They fold the comparisons they decide, so an
   edge guard a tile-aligned shape makes always true disappears, turn a
   division or remainder of a non-negative value by a power of two into
   a shift or a mask, and inline loops that run exactly once.

   These are deliberately *generic* transformations: the point of the
   paper's barrier semantics is that such passes keep working unmodified
   in the presence of [polygeist.barrier] — nothing here special-cases
   synchronization. *)

open Ir
module Mem = Interp.Mem
module Scalar = Interp.Scalar

(* The walking state: known constants (their values as a run sees them),
   integer ranges [(lo, hi)] with both ends inclusive, and a value
   substitution. *)
type st =
  { consts : Mem.rv Value.Tbl.t
  ; ranges : (int * int) Value.Tbl.t
  ; subst : Clone.subst
  }

let new_st () =
  { consts = Value.Tbl.create 64
  ; ranges = Value.Tbl.create 64
  ; subst = Clone.create_subst ()
  }

let const_of st (v : Value.t) = Value.Tbl.find_opt st.consts v

let int_const st (v : Value.t) =
  match const_of st v with Some (Mem.Int n) -> Some n | _ -> None

(* Facts stay within +-2^30, so no interval arithmetic below can wrap
   in 63 bits. *)
let bound = 1 lsl 30

let fits (lo, hi) = -bound <= lo && lo <= hi && hi <= bound

let is_i1 (v : Value.t) = v.typ = Types.Scalar Types.I1

(* The range a value is known to stay in: a constant's value, a
   recorded fact, or [0, 1] for any i1. *)
let range st (v : Value.t) : (int * int) option =
  match int_const st v with
  | Some n -> if fits (n, n) then Some (n, n) else None
  | None -> (
    match Value.Tbl.find_opt st.ranges v with
    | Some _ as r -> r
    | None -> if is_i1 v then Some (0, 1) else None)

let set_range st (v : Value.t) r = if fits r then Value.Tbl.replace st.ranges v r

(* The positive integer literal [v] holds, if any. *)
let positive st v = match int_const st v with Some n when n > 0 -> Some n | _ -> None

let result_dtype (op : Op.op) =
  match (Op.result op).typ with
  | Types.Scalar d -> d
  | Types.Memref _ -> Types.Index

let replace_value st (r : Value.t) (v : Value.t) =
  Clone.add_subst st.subst ~from:r ~to_:v;
  match Value.Tbl.find_opt st.consts v with
  | Some c -> Value.Tbl.replace st.consts r c
  | None -> ()

(* Replace op's single result by [v] everywhere downstream. *)
let replace_with st (op : Op.op) (v : Value.t) : Op.op list =
  replace_value st (Op.result op) v;
  []

(* Delete op, its results standing for [vs] downstream. *)
let replace_results st (op : Op.op) (vs : Value.t array) : Op.op list =
  Array.iteri (fun i r -> replace_value st r vs.(i)) op.results;
  []

let materialize_const st (op : Op.op) (c : Op.const) : Op.op list =
  let k =
    match c with
    | Op.Cint (n, dtype) -> Builder.const_int ~dtype n
    | Op.Cfloat (f, dtype) -> Builder.const_float ~dtype f
  in
  Value.Tbl.replace st.consts (Op.result k) (Scalar.const c);
  Clone.add_subst st.subst ~from:(Op.result op) ~to_:(Op.result k);
  [ k ]

let same_bits (a : Mem.rv) (b : Mem.rv) =
  match a, b with
  | Mem.Int x, Mem.Int y -> x = y
  | Mem.Flt x, Mem.Flt y ->
    Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | _ -> false

(* An op whose operands are all constants becomes the constant of its
   value — unless evaluating it traps, or no literal of the result type
   reads back as exactly that value (an f32 constant is rounded, f32
   arithmetic is not). *)
let fold st (op : Op.op) : Op.op list option =
  if not (Array.for_all (Value.Tbl.mem st.consts) op.operands) then None
  else begin
    match Scalar.eval op (Array.map (Value.Tbl.find st.consts) op.operands) with
    | exception Mem.Runtime_error _ -> None
    | v ->
      let d = result_dtype op in
      let lit =
        match v with
        | Mem.Int n when not (Types.is_float_dtype d) -> Some (Op.Cint (n, d))
        | Mem.Flt f when Types.is_float_dtype d -> Some (Op.Cfloat (f, d))
        | _ -> None
      in
      match lit with
      | Some c when same_bits (Scalar.const c) v ->
        Some (materialize_const st op c)
      | _ -> None
  end

(* Identities that hold bit for bit: [x + 0] and [x * 0] only on
   integers ([-0.0 + 0.0] is [+0.0], [x * 0.0] may be [-0.0] or NaN),
   [x - 0] for a +0, [x * 1], [x / 1]. *)
let binop_identity st (op : Op.op) kind : Op.op list =
  let a = op.operands.(0) and b = op.operands.(1) in
  let int = not (Scalar.is_float_value a) in
  (* does the constant hold [n], read the way this op reads it?  A float
     op tells -0.0 from 0 *)
  let holds c n =
    match c with
    | None -> false
    | Some c when int -> same_bits c (Mem.Int n)
    | Some c -> same_bits (Mem.Flt (Mem.as_float c)) (Mem.Flt (float_of_int n))
  in
  let ca = const_of st a and cb = const_of st b in
  match kind with
  | Op.Add when int && holds ca 0 -> replace_with st op b
  | Op.Add when int && holds cb 0 -> replace_with st op a
  | Op.Sub when holds cb 0 -> replace_with st op a
  | Op.Mul when holds ca 1 -> replace_with st op b
  | Op.Mul when holds cb 1 -> replace_with st op a
  | (Op.Mul | Op.And) when int && holds ca 0 -> replace_with st op a
  | (Op.Mul | Op.And) when int && holds cb 0 -> replace_with st op b
  | Op.Div when holds cb 1 -> replace_with st op a
  | (Op.Or | Op.Xor | Op.Shl | Op.Shr) when int && holds cb 0 ->
    replace_with st op a
  | Op.Sub when int && Value.equal a b ->
    materialize_const st op (Op.Cint (0, result_dtype op))
  | _ -> [ op ]

(* The range of an integer binop's result from its operands' ranges:
   [divi]/[remi] only by a positive literal, [andi] only of two
   non-negatives and [shri] only by a literal. *)
let binop_range st kind a b : (int * int) option =
  match range st a, range st b with
  | Some (la, ha), Some (lb, hb) -> begin
    match kind with
    | Op.Add -> Some (la + lb, ha + hb)
    | Op.Sub -> Some (la - hb, ha - lb)
    | Op.Mul ->
      let ps = [ la * lb; la * hb; ha * lb; ha * hb ] in
      Some (List.fold_left min max_int ps, List.fold_left max min_int ps)
    | Op.Min -> Some (min la lb, min ha hb)
    | Op.Max -> Some (max la lb, max ha hb)
    | Op.Div when lb = hb && lb > 0 -> Some (la / lb, ha / lb)
    | Op.Rem when lb = hb && lb > 0 ->
      (* the remainder takes the dividend's sign *)
      Some
        ( (if la >= 0 then 0 else max la (1 - lb))
        , if ha <= 0 then 0 else min ha (lb - 1) )
    | Op.And when la >= 0 && lb >= 0 -> Some (0, min ha hb)
    | Op.Shr when lb = hb && lb >= 0 && lb < Sys.int_size ->
      Some (la asr lb, ha asr lb)
    | _ -> None
  end
  | _ -> None

(* A comparison the ranges decide: [Some 1] or [Some 0]. *)
let cmp_decided st pred a b : int option =
  match range st a, range st b with
  | Some (la, ha), Some (lb, hb) ->
    let lt = ha < lb and ge = la >= hb in
    let le = ha <= lb and gt = la > hb in
    let eq = la = ha && lb = hb && la = lb and ne = ha < lb || hb < la in
    let decide yes no = if yes then Some 1 else if no then Some 0 else None in
    begin match pred with
    | Op.Lt -> decide lt ge
    | Op.Ge -> decide ge lt
    | Op.Le -> decide le gt
    | Op.Gt -> decide gt le
    | Op.Eq -> decide eq ne
    | Op.Ne -> decide ne eq
    end
  | _ -> None

(* The range of an integer op's result, when its operands' ranges give
   one. *)
let op_range st (op : Op.op) : (int * int) option =
  let ints = not (Scalar.is_float_value op.operands.(0)) in
  match op.kind with
  | Op.Binop kind when ints -> binop_range st kind op.operands.(0) op.operands.(1)
  | Op.Cmp pred when ints ->
    Option.map (fun c -> (c, c)) (cmp_decided st pred op.operands.(0) op.operands.(1))
  | Op.Select when not (Scalar.is_float_value op.operands.(1)) -> begin
    match range st op.operands.(1), range st op.operands.(2) with
    | Some (l1, h1), Some (l2, h2) -> Some (min l1 l2, max h1 h2)
    | _ -> None
  end
  | Op.Cast d when ints && Types.is_int_dtype d && d <> Types.I1 ->
    range st op.operands.(0)
  | _ -> None

(* Rewrites the operands' ranges allow: the remainder of a value already
   below its positive divisor is the value, a division or remainder of a
   non-negative value by a power of two is a shift or a mask, and
   [c && true] on i1 is [c]. *)
let range_rewrite st (op : Op.op) kind : Op.op list =
  let a = op.operands.(0) and b = op.operands.(1) in
  let a_within lo hi =
    match range st a with Some (l, h) -> lo <= l && h <= hi | None -> false
  in
  let pow2 k = k > 1 && k land (k - 1) = 0 in
  let rec log2 k = if k = 1 then 0 else 1 + log2 (k lsr 1) in
  match kind, positive st b with
  | Op.Rem, Some k when a_within 0 (k - 1) -> replace_with st op a
  | (Op.Div | Op.Rem), Some k when pow2 k && a_within 0 bound ->
    let kind', c =
      if kind = Op.Div then (Op.Shr, log2 k) else (Op.And, k - 1)
    in
    let c = Builder.const_int ~dtype:(result_dtype op) c in
    let r = Builder.binop kind' a (Op.result c) in
    r.loc <- op.loc;
    replace_value st (Op.result op) (Op.result r);
    [ c; r ]
  | Op.And, _ when is_i1 a && int_const st b = Some 1 -> replace_with st op a
  | Op.And, _ when is_i1 a && int_const st a = Some 1 -> replace_with st op b
  | _ -> [ op ]

(* One canonicalization step for one op (operands already substituted). *)
let simplify_op st (op : Op.op) : Op.op list =
  (* fold an op whose operands are constants, or whose range is one value
     it is sure to produce; otherwise record its range and try [rules] *)
  let or_fold rules =
    match fold st op with
    | Some ops -> ops
    | None -> begin
      match op_range st op with
      | Some (lo, hi)
        when lo = hi && not (Scalar.may_trap ~literal:(int_const st) op) ->
        materialize_const st op (Op.Cint (lo, result_dtype op))
      | r ->
        Option.iter (set_range st (Op.result op)) r;
        rules ()
    end
  in
  match op.kind with
  | Op.Constant c ->
    Value.Tbl.replace st.consts (Op.result op) (Scalar.const c);
    [ op ]
  | Op.Binop kind ->
    or_fold (fun () ->
        match binop_identity st op kind with
        | [ o ] when o == op && not (Scalar.is_float_value op.operands.(0)) ->
          range_rewrite st op kind
        | ops -> ops)
  | Op.Cmp pred ->
    (* [x op x] is known for integers only: a NaN is unequal to itself *)
    or_fold (fun () ->
        let a = op.operands.(0) in
        if Value.equal a op.operands.(1) && not (Scalar.is_float_value a)
        then begin
          let c = match pred with Op.Eq | Op.Le | Op.Ge -> 1 | _ -> 0 in
          materialize_const st op (Op.Cint (c, result_dtype op))
        end
        else [ op ])
  | Op.Select -> begin
    match const_of st op.operands.(0) with
    | Some (Mem.Int 0) -> replace_with st op op.operands.(2)
    | Some (Mem.Int _) -> replace_with st op op.operands.(1)
    | _ ->
      if Value.equal op.operands.(1) op.operands.(2) then
        replace_with st op op.operands.(1)
      else or_fold (fun () -> [ op ])
  end
  | Op.Cast d -> begin
    (* integer widths share one representation, and an f64 cast of an
       f64 is the value itself (an f32 cast rounds) *)
    let src = op.operands.(0) in
    let same =
      match src.typ with
      | Types.Scalar s ->
        (s = d && d <> Types.F32)
        || (Types.is_int_dtype s && Types.is_int_dtype d && d <> Types.I1
            && s <> Types.I1)
      | Types.Memref _ -> false
    in
    if same then replace_with st op src else or_fold (fun () -> [ op ])
  end
  | Op.Math _ -> or_fold (fun () -> [ op ])
  | Op.For -> begin
    (* a zero-trip loop is its inits — but only a positive literal step
       is sure not to trap, so anything else stays for the run to
       reject *)
    match
      ( int_const st (Op.for_lo op)
      , int_const st (Op.for_hi op)
      , positive st (Op.for_step op) )
    with
    | Some lo, Some hi, Some _ when lo >= hi ->
      replace_results st op (Op.for_inits op)
    | _ -> [ op ]
  end
  | _ -> [ op ]

(* Apply the substitution to an op's operands in place. *)
let apply_subst st (op : Op.op) =
  op.operands <- Array.map (Clone.lookup st.subst) op.operands

let positive_step st (op : Op.op) = Option.is_some (positive st (Op.for_step op))

(* A region whose body is just [scf.yield vs]: the values it yields. *)
let lone_yield (r : Op.region) : Value.t array option =
  match r.body with
  | [ { Op.kind = Op.Yield; operands; _ } ] -> Some operands
  | _ -> None

(* The ivs of a loop with a positive literal step range over
   [min lo, max hi - 1]. *)
let record_iv_ranges st (op : Op.op) =
  let iv_range iv ~lo ~hi ~step =
    match positive st step, range st lo, range st hi with
    | Some _, Some (l, _), Some (_, h) -> set_range st iv (l, h - 1)
    | _ -> ()
  in
  match op.kind with
  | Op.For ->
    iv_range (Op.for_iv op) ~lo:(Op.for_lo op) ~hi:(Op.for_hi op)
      ~step:(Op.for_step op)
  | Op.Parallel _ | Op.OmpWsloop ->
    Array.iteri
      (fun d iv ->
        iv_range iv ~lo:(Op.par_lo op d) ~hi:(Op.par_hi op d)
          ~step:(Op.par_step op d))
      (Op.body_region op).rargs
  | _ -> ()

(* A loop with literal bounds whose first step already passes [hi] (a
   [lo + step] that wraps is negative, so it counts as more trips). *)
let one_trip st (op : Op.op) =
  match
    ( int_const st (Op.for_lo op)
    , int_const st (Op.for_hi op)
    , positive st (Op.for_step op) )
  with
  | Some lo, Some hi, Some step -> lo < hi && hi <= lo + step
  | _ -> false

let rec walk st (op : Op.op) : Op.op list =
  apply_subst st op;
  (* top-down so region bodies see outer constants and ranges *)
  let const_cond =
    match op.kind with
    | Op.If -> int_const st op.operands.(0)
    | _ -> None
  in
  match const_cond with
  | Some c ->
    (* a constant condition inlines the taken branch, whose yielded
       values stand for the results *)
    inline_region st (if c <> 0 then op.regions.(0) else op.regions.(1))
      op.results
  | None when op.kind = Op.For && one_trip st op ->
    (* a one-trip loop is its body run once: the iv is [lo], the
       iter_args are the inits and the yielded values the results *)
    replace_value st (Op.for_iv op) (Op.for_lo op);
    Array.iter2 (replace_value st) (Op.for_iter_args op) (Op.for_inits op);
    inline_region st (Op.body_region op) op.results
  | None -> begin
    match simplify_op st op with
    | [ o ] when o == op ->
      record_iv_ranges st op;
      Array.iter
        (fun (r : Op.region) -> r.body <- List.concat_map (walk st) r.body)
        op.regions;
      simplify_after_regions st op
    | others ->
      (* the op was replaced: the replacement ops have not been visited
         yet *)
      List.concat_map (walk st) others
  end

and inline_region st (r : Op.region) (results : Value.t array) : Op.op list =
  let body = List.filter (fun (o : Op.op) -> o.Op.kind <> Op.Yield) r.body in
  let out = List.concat_map (walk st) body in
  Array.iteri
    (fun i (v : Value.t) -> replace_value st results.(i) (Clone.lookup st.subst v))
    (Op.yielded r);
  out

(* Rules that need the simplified regions: an [scf.if] of lone yields
   is a select per result, and a loop that only passes its iter_args
   through is its inits (empty loops without results are DCE's). *)
and simplify_after_regions st (op : Op.op) : Op.op list =
  match op.kind with
  | Op.If when Array.length op.results > 0 -> begin
    match lone_yield op.regions.(0), lone_yield op.regions.(1) with
    | Some a, Some b ->
      let c = op.operands.(0) in
      List.concat
        (List.mapi
           (fun i (r : Value.t) ->
             if Value.equal a.(i) b.(i) then (replace_value st r a.(i); [])
             else begin
               let sel = Builder.select c a.(i) b.(i) in
               replace_value st r (Op.result sel);
               [ sel ]
             end)
           (Array.to_list op.results))
    | _ -> [ op ]
  end
  | Op.For when positive_step st op -> begin
    match lone_yield op.regions.(0) with
    | Some ys when Array.for_all2 Value.equal ys (Op.for_iter_args op) ->
      replace_results st op (Op.for_inits op)
    | _ -> [ op ]
  end
  | _ -> [ op ]

(* --- dead code elimination --- *)

let count_uses (root : Op.op) : int Value.Tbl.t =
  let uses = Value.Tbl.create 256 in
  Op.iter
    (fun o ->
      Array.iter
        (fun v ->
          Value.Tbl.replace uses v
            (1 + Option.value ~default:0 (Value.Tbl.find_opt uses v)))
        o.Op.operands)
    root;
  uses

(* Bottom-up: an op whose results are unused goes when it is pure and
   cannot trap, or when it is an [scf.if] or an [scf.for] whose regions
   hold nothing but such ops and yields — a loop only with a positive
   literal step, since any other step may trap.  Children go first, so
   a whole empty nest collapses in one round. *)
let dce st (root : Op.op) : bool =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    let uses = count_uses root in
    let used v = Value.Tbl.mem uses v in
    let rec effect_free (op : Op.op) =
      (Op.is_pure op && not (Scalar.may_trap ~literal:(int_const st) op))
      ||
      match op.kind with
      | Op.Yield -> true
      | Op.If -> Array.for_all region_free op.regions
      | Op.For -> positive_step st op && region_free op.regions.(0)
      | _ -> false
    and region_free (r : Op.region) = List.for_all effect_free r.body in
    let removed = ref false in
    let rec clean (op : Op.op) : Op.op list =
      Array.iter
        (fun (r : Op.region) -> r.body <- List.concat_map clean r.body)
        op.Op.regions;
      if
        op.kind <> Op.Yield
        && (not (Array.exists used op.results))
        && effect_free op
      then begin
        removed := true;
        []
      end
      else [ op ]
    in
    (match clean root with
     | [ _ ] -> ()
     | _ -> ());
    if !removed then changed := true else continue_ := false
  done;
  !changed

let run (m : Op.op) : unit =
  let st = new_st () in
  (match walk st m with [ _ ] -> () | _ -> ());
  ignore (dce st m)
