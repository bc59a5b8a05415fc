(* Convenience constructors.  Each function builds a fully-typed op and
   returns it (and, for value-producing ops, its result value).

   These are deliberately pure constructors: sequencing into a region body
   is done by the caller (usually via an accumulating [Seq] buffer, below),
   which keeps transformation code that rebuilds regions straightforward. *)

let const_int ?(dtype = Types.Index) n =
  Op.mk (Constant (Cint (n, dtype)))
    ~results:[| Value.fresh ~name:"c" (Types.Scalar dtype) |]

let const_float ?(dtype = Types.F32) f =
  Op.mk (Constant (Cfloat (f, dtype)))
    ~results:[| Value.fresh ~name:"cst" (Types.Scalar dtype) |]

let binop kind (a : Value.t) (b : Value.t) =
  Op.mk (Binop kind) ~operands:[| a; b |]
    ~results:[| Value.fresh ~name:(Op.binop_to_string kind) a.typ |]

let cmp pred (a : Value.t) (b : Value.t) =
  Op.mk (Cmp pred) ~operands:[| a; b |]
    ~results:[| Value.fresh ~name:"cmp" (Types.Scalar Types.I1) |]

let select (c : Value.t) (a : Value.t) (b : Value.t) =
  Op.mk Select ~operands:[| c; a; b |]
    ~results:[| Value.fresh ~name:"sel" a.typ |]

let cast dtype (a : Value.t) =
  Op.mk (Cast dtype) ~operands:[| a |]
    ~results:[| Value.fresh ~name:"cast" (Types.Scalar dtype) |]

let math fn (args : Value.t list) =
  let a = List.hd args in
  Op.mk (Math fn) ~operands:(Array.of_list args)
    ~results:[| Value.fresh ~name:(Op.math_to_string fn) a.typ |]

let alloc ?(space = Types.Global) elem shape dyn_sizes =
  let t = Types.memref ~space elem shape in
  Op.mk Alloc ~operands:(Array.of_list dyn_sizes)
    ~results:[| Value.fresh ~name:"alloc" t |]

let alloca ?(space = Types.Local) elem shape =
  let t = Types.memref ~space elem shape in
  Op.mk Alloca ~results:[| Value.fresh ~name:"alloca" t |]

let dealloc (m : Value.t) = Op.mk Dealloc ~operands:[| m |]

let load (m : Value.t) idxs =
  let elem = Types.elem_dtype m.typ in
  Op.mk Load
    ~operands:(Array.of_list (m :: idxs))
    ~results:[| Value.fresh ~name:"ld" (Types.Scalar elem) |]

let store (v : Value.t) (m : Value.t) idxs =
  Op.mk Store ~operands:(Array.of_list (v :: m :: idxs))

let copy ~src ~dst = Op.mk Copy ~operands:[| src; dst |]

let dim (m : Value.t) i =
  Op.mk (Dim i) ~operands:[| m |]
    ~results:[| Value.fresh ~name:"dim" (Types.Scalar Types.Index) |]

let for_iter ~lo ~hi ~step ~inits body_of =
  let iv = Value.fresh ~name:"i" (Types.Scalar Types.Index) in
  let args =
    Array.of_list
      (List.map (fun (v : Value.t) -> Value.fresh ~name:"it" v.typ) inits)
  in
  let body = body_of iv args in
  Op.mk For
    ~operands:(Array.of_list (lo :: hi :: step :: inits))
    ~results:(Array.map (fun (a : Value.t) -> Value.fresh ~name:"for" a.typ) args)
    ~regions:[| Op.region ~args:(Array.append [| iv |] args) body |]

let for_ ~lo ~hi ~step body_of_iv =
  for_iter ~lo ~hi ~step ~inits:[] (fun iv _ -> body_of_iv iv)

let yield_ vals = Op.mk Yield ~operands:(Array.of_list vals)

let while_ ~cond_body ~body =
  Op.mk While ~regions:[| Op.region cond_body; Op.region body |]

let condition (c : Value.t) = Op.mk Condition ~operands:[| c |]

let if_ ?(else_ = []) ?(results = []) (c : Value.t) then_ =
  Op.mk If ~operands:[| c |]
    ~results:(Array.of_list (List.map (Value.fresh ~name:"if") results))
    ~regions:[| Op.region then_; Op.region else_ |]

let parallel kind ~lbs ~ubs ~steps body_of_ivs =
  let n = List.length lbs in
  assert (List.length ubs = n && List.length steps = n);
  let ivs =
    Array.init n (fun i ->
        Value.fresh ~name:(Printf.sprintf "iv%d" i) (Types.Scalar Types.Index))
  in
  let body = body_of_ivs ivs in
  Op.mk (Parallel kind)
    ~operands:(Array.of_list (lbs @ ubs @ steps))
    ~regions:[| Op.region ~args:ivs body |]

let barrier () = Op.mk Barrier

let call name ?ret args =
  let results =
    match ret with
    | None -> [||]
    | Some t -> [| Value.fresh ~name:"call" t |]
  in
  Op.mk (Call name) ~operands:(Array.of_list args) ~results

let return_ args = Op.mk Return ~operands:(Array.of_list args)

let func name params ?ret body_of_params =
  let args =
    Array.of_list (List.map (fun (n, t) -> Value.fresh ~name:n t) params)
  in
  let body = body_of_params args in
  Op.mk (Func { name; ret }) ~regions:[| Op.region ~args body |]

let module_ funcs = Op.mk Module ~regions:[| Op.region funcs |]

let omp_parallel body = Op.mk OmpParallel ~regions:[| Op.region body |]

let omp_wsloop ~lbs ~ubs ~steps body_of_ivs =
  let n = List.length lbs in
  let ivs =
    Array.init n (fun i ->
        Value.fresh ~name:(Printf.sprintf "wi%d" i) (Types.Scalar Types.Index))
  in
  let body = body_of_ivs ivs in
  Op.mk OmpWsloop
    ~operands:(Array.of_list (lbs @ ubs @ steps))
    ~regions:[| Op.region ~args:ivs body |]

let omp_barrier () = Op.mk OmpBarrier

(* Mutable sequence of ops: the standard way to emit code.  [emit] appends
   an op and returns it, [emitv] returns the op's single result. *)
module Seq = struct
  type t = Op.op list ref

  let create () : t = ref []
  let emit (s : t) op = s := op :: !s; op
  let emitv (s : t) op = ignore (emit s op); Op.result op
  let to_list (s : t) = List.rev !s
end
