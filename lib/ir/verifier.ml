(* Structural verifier.  Checks the invariants every pass must preserve:

   - SSA: each value has a single definition, and every operand is defined
     by a lexically earlier op in the same region or in an enclosing one.
   - arity/typing: operand and result shapes of each op kind.
   - placement: [Barrier] only appears inside a [Parallel Block] (or
     [Parallel Grid] for grid-level sync, which we do not generate) and
     [Condition] only terminates a [While] condition region.
   - carried values: an [If] with results and a [For] with iter_args
     hold scalars only, every region of theirs ends in a [Yield] of
     matching arity and types, and none of them contains a barrier, a
     parallel loop, an [omp.*] op or a [While] ({!Op.blocks_carry});
     [Yield] appears only as the last op of an [If]/[For] region. *)

exception Error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let check_index what (v : Value.t) =
  match v.typ with
  | Types.Scalar (Types.Index | Types.I32 | Types.I64) -> ()
  | _ -> fail "%s: expected integer/index, got %s" what (Types.to_string v.typ)

let check_memref what (v : Value.t) =
  match v.typ with
  | Types.Memref _ -> ()
  | Types.Scalar _ -> fail "%s: expected memref, got %s" what (Types.to_string v.typ)

let check_i1 what (v : Value.t) =
  if v.typ <> Types.Scalar Types.I1 then
    fail "%s: expected i1, got %s" what (Types.to_string v.typ)

(* Scope is one mutable table over every value defined so far: [true]
   while the value is visible, [false] once its region has been left
   (it stays in the table for the module-wide single-definition check).
   [locals] lists the definitions of the region being walked, so leaving
   the region hides exactly those. *)
type ctx =
  { seen : bool Value.Tbl.t
  ; mutable locals : Value.t list
  ; mutable inside_block_par : bool
  ; mutable inside_while_cond : bool
  ; mutable inside_carry : bool
  }

let define ctx (v : Value.t) =
  if Value.Tbl.mem ctx.seen v then
    fail "value %s defined twice" (Value.to_string v);
  Value.Tbl.add ctx.seen v true;
  ctx.locals <- v :: ctx.locals

let define_all ctx (vs : Value.t array) =
  for i = 0 to Array.length vs - 1 do
    define ctx vs.(i)
  done

(* The offending op is printed only once a use has failed: printing it
   up front would print every region-holding op's whole subtree. *)
let use ctx (op : Op.op) (v : Value.t) =
  let visible =
    match Value.Tbl.find ctx.seen v with b -> b | exception Not_found -> false
  in
  if not visible then
    fail "%s: use of %s before definition / out of scope"
      (Printer.op_to_string op |> String.trim)
      (Value.to_string v)

(* Top-level rather than a closure over [op]'s counts, so the per-op
   shape check allocates nothing. *)
let expect (op : Op.op) ?(operands = -1) ?(results = -1) ?(regions = -1) name =
  let nops = Array.length op.operands in
  let nres = Array.length op.results in
  let nreg = Array.length op.regions in
  if operands >= 0 && nops <> operands then
    fail "%s: expected %d operands, got %d" name operands nops;
  if results >= 0 && nres <> results then
    fail "%s: expected %d results, got %d" name results nres;
  if regions >= 0 && nreg <> regions then
    fail "%s: expected %d regions, got %d" name regions nreg

let check_scalars what (vs : Value.t array) =
  Array.iter
    (fun (v : Value.t) ->
      match v.typ with
      | Types.Scalar _ -> ()
      | Types.Memref _ ->
        fail "%s: memref-typed value %s cannot be carried" what
          (Value.to_string v))
    vs

let check_same_types what (a : Value.t array) (b : Value.t array) =
  if Array.length a <> Array.length b then
    fail "%s: %d values for %d slots" what (Array.length a) (Array.length b);
  Array.iteri
    (fun i (x : Value.t) ->
      if not (Types.equal x.typ b.(i).typ) then
        fail "%s: type mismatch at %d (%s vs %s)" what i
          (Types.to_string x.typ) (Types.to_string b.(i).typ))
    a

let check_op_shape (op : Op.op) =
  let nops = Array.length op.operands in
  match op.kind with
  | Op.Module -> expect op ~operands:0 ~results:0 ~regions:1 "module"
  | Op.Func _ -> expect op ~operands:0 ~results:0 ~regions:1 "func"
  | Op.Return -> expect op ~results:0 ~regions:0 "return"
  | Op.Call _ -> expect op ~regions:0 "call"
  | Op.Constant _ -> expect op ~operands:0 ~results:1 ~regions:0 "constant"
  | Op.Binop _ ->
    expect op ~operands:2 ~results:1 ~regions:0 "binop";
    if not (Types.equal op.operands.(0).typ op.operands.(1).typ) then
      fail "binop: operand type mismatch (%s vs %s)"
        (Types.to_string op.operands.(0).typ)
        (Types.to_string op.operands.(1).typ)
  | Op.Cmp _ -> expect op ~operands:2 ~results:1 ~regions:0 "cmp"
  | Op.Select ->
    expect op ~operands:3 ~results:1 ~regions:0 "select";
    check_i1 "select cond" op.operands.(0)
  | Op.Cast _ -> expect op ~operands:1 ~results:1 ~regions:0 "cast"
  | Op.Math _ -> expect op ~results:1 ~regions:0 "math"
  | Op.Alloc -> expect op ~results:1 ~regions:0 "alloc"
  | Op.Alloca -> expect op ~operands:0 ~results:1 ~regions:0 "alloca"
  | Op.Dealloc -> expect op ~operands:1 ~results:0 ~regions:0 "dealloc"
  | Op.Load ->
    expect op ~results:1 ~regions:0 "load";
    check_memref "load base" op.operands.(0);
    if nops - 1 <> Types.rank op.operands.(0).typ then
      fail "load: %d indices for rank-%d memref" (nops - 1)
        (Types.rank op.operands.(0).typ)
  | Op.Store ->
    expect op ~results:0 ~regions:0 "store";
    check_memref "store base" op.operands.(1);
    if nops - 2 <> Types.rank op.operands.(1).typ then
      fail "store: %d indices for rank-%d memref" (nops - 2)
        (Types.rank op.operands.(1).typ)
  | Op.Copy ->
    expect op ~operands:2 ~results:0 ~regions:0 "copy";
    check_memref "copy src" op.operands.(0);
    check_memref "copy dst" op.operands.(1)
  | Op.Dim _ -> expect op ~operands:1 ~results:1 ~regions:0 "dim"
  | Op.For ->
    expect op ~regions:1 "for";
    if nops < 3 then fail "for: expected at least 3 operands, got %d" nops;
    for i = 0 to 2 do
      check_index "for bound" op.operands.(i)
    done;
    if Array.length op.regions.(0).rargs <> nops - 2 then
      fail "for: expected %d region args (iv + iter_args), got %d" (nops - 2)
        (Array.length op.regions.(0).rargs);
    let inits = Op.for_inits op in
    check_scalars "for iter_arg" inits;
    check_same_types "for iter_args" (Op.for_iter_args op) inits;
    check_same_types "for results" op.results inits
  | Op.While ->
    expect op ~operands:0 ~results:0 ~regions:2 "while"
  | Op.If ->
    expect op ~operands:1 ~regions:2 "if";
    check_i1 "if cond" op.operands.(0);
    check_scalars "if result" op.results
  | Op.Parallel _ | Op.OmpWsloop ->
    expect op ~results:0 ~regions:1 "parallel";
    let n = Array.length op.regions.(0).rargs in
    if nops <> 3 * n then
      fail "parallel: %d operands for %d ivs (want %d)" nops n (3 * n);
    Array.iter (check_index "parallel bound") op.operands
  | Op.Barrier -> expect op ~operands:0 ~results:0 ~regions:0 "barrier"
  | Op.Yield -> expect op ~results:0 ~regions:0 "yield"
  | Op.Condition ->
    expect op ~operands:1 ~results:0 ~regions:0 "condition";
    check_i1 "condition" op.operands.(0)
  | Op.OmpParallel -> expect op ~operands:0 ~results:0 ~regions:1 "omp.parallel"
  | Op.OmpBarrier -> expect op ~operands:0 ~results:0 ~regions:0 "omp.barrier"

let rec check_op ctx (op : Op.op) =
  for i = 0 to Array.length op.operands - 1 do
    use ctx op op.operands.(i)
  done;
  check_op_shape op;
  if ctx.inside_carry && Op.blocks_carry op then
    fail "%s nested inside an scf.if with results or an scf.for with iter_args"
      (match op.kind with
       | Op.Barrier -> "polygeist.barrier"
       | Op.While -> "scf.while"
       | Op.Parallel _ -> "scf.parallel"
       | _ -> "omp op");
  (match op.kind with
   | Op.Barrier ->
     if not ctx.inside_block_par then
       fail "barrier outside of a block-level parallel loop"
   | Op.Condition ->
     if not ctx.inside_while_cond then fail "condition outside while cond"
   | Op.Module | Op.Func _ | Op.Return | Op.Call _ | Op.Constant _
   | Op.Binop _ | Op.Cmp _ | Op.Select | Op.Cast _ | Op.Math _ | Op.Alloc
   | Op.Alloca | Op.Dealloc | Op.Load | Op.Store | Op.Copy | Op.Dim _
   | Op.For | Op.While | Op.If | Op.Parallel _ | Op.Yield | Op.OmpParallel
   | Op.OmpWsloop | Op.OmpBarrier -> ());
  define_all ctx op.results;
  for i = 0 to Array.length op.regions - 1 do
    check_region ctx op i op.regions.(i)
  done

and check_region ctx (op : Op.op) i (r : Op.region) =
  let saved_locals = ctx.locals in
  let saved_block = ctx.inside_block_par in
  let saved_cond = ctx.inside_while_cond in
  let saved_carry = ctx.inside_carry in
  ctx.locals <- [];
  if Op.carries_values op then ctx.inside_carry <- true;
  (match op.kind with
   | Op.Parallel Op.Block -> ctx.inside_block_par <- true
   | Op.Parallel _ | Op.OmpParallel | Op.OmpWsloop | Op.Func _ ->
     ctx.inside_block_par <- false
   | _ -> ());
  ctx.inside_while_cond <- (match op.kind with Op.While -> i = 0 | _ -> false);
  define_all ctx r.rargs;
  List.iter (check_op ctx) r.body;
  (match op.kind, i with
   | Op.While, 0 ->
     (match List.rev r.body with
      | { kind = Op.Condition; _ } :: _ -> ()
      | _ -> fail "while cond region must end in scf.condition")
   | _ -> ());
  check_yields op r;
  (* leaving the region: its definitions stay defined, out of scope *)
  List.iter (fun v -> Value.Tbl.replace ctx.seen v false) ctx.locals;
  ctx.locals <- saved_locals;
  ctx.inside_block_par <- saved_block;
  ctx.inside_while_cond <- saved_cond;
  ctx.inside_carry <- saved_carry

(* [Yield] terminates [If]/[For] regions only; a value-carrying op's
   regions must end in one that matches what the op carries. *)
and check_yields (op : Op.op) (r : Op.region) =
  let carried =
    match op.kind with
    | Op.If -> Some op.results
    | Op.For -> Some (Op.for_iter_args op)
    | _ -> None
  in
  let rec go = function
    | [] ->
      if Op.carries_values op then fail "value-carrying region must end in scf.yield"
    | [ (last : Op.op) ] -> begin
      match last.kind, carried with
      | Op.Yield, None -> fail "scf.yield outside an scf.if/scf.for region"
      | Op.Yield, Some want -> check_same_types "scf.yield" last.operands want
      | _ ->
        if Op.carries_values op then
          fail "value-carrying region must end in scf.yield"
    end
    | (o : Op.op) :: rest ->
      if o.kind = Op.Yield then fail "scf.yield must be the last op of its region";
      go rest
  in
  go r.body

let verify (m : Op.op) =
  let ctx =
    { seen = Value.Tbl.create 256
    ; locals = []
    ; inside_block_par = false
    ; inside_while_cond = false
    ; inside_carry = false
    }
  in
  check_op ctx m

let verify_result m =
  match verify m with
  | () -> Ok ()
  | exception Error e -> Error e
