(* Canonicalization: constant folding, algebraic identities, constant
   control-flow simplification and dead-code elimination (pure ops, and
   scf.if/scf.for ops that hold nothing else).

   These are deliberately *generic* transformations: the point of the
   paper's barrier semantics is that such passes keep working unmodified
   in the presence of [polygeist.barrier] — nothing here special-cases
   synchronization. *)

open Ir

type const_val =
  | Ci of int
  | Cf of float

(* The walking state: known constants and a value substitution. *)
type st =
  { consts : const_val Value.Tbl.t
  ; subst : Clone.subst
  }

let new_st () = { consts = Value.Tbl.create 64; subst = Clone.create_subst () }

let const_of st (v : Value.t) = Value.Tbl.find_opt st.consts v

let fold_binop kind (a : const_val) (b : const_val) : const_val option =
  match a, b with
  | Ci x, Ci y -> begin
    match kind with
    | Op.Add -> Some (Ci (x + y))
    | Op.Sub -> Some (Ci (x - y))
    | Op.Mul -> Some (Ci (x * y))
    | Op.Div -> if y = 0 then None else Some (Ci (x / y))
    | Op.Rem -> if y = 0 then None else Some (Ci (x mod y))
    | Op.Min -> Some (Ci (min x y))
    | Op.Max -> Some (Ci (max x y))
    | Op.And -> Some (Ci (x land y))
    | Op.Or -> Some (Ci (x lor y))
    | Op.Xor -> Some (Ci (x lxor y))
    | Op.Shl -> Some (Ci (x lsl y))
    | Op.Shr -> Some (Ci (x asr y))
  end
  | Cf x, Cf y -> begin
    match kind with
    | Op.Add -> Some (Cf (x +. y))
    | Op.Sub -> Some (Cf (x -. y))
    | Op.Mul -> Some (Cf (x *. y))
    | Op.Div -> Some (Cf (x /. y))
    | Op.Min -> Some (Cf (Float.min x y))
    | Op.Max -> Some (Cf (Float.max x y))
    | Op.Rem | Op.And | Op.Or | Op.Xor | Op.Shl | Op.Shr -> None
  end
  | _ -> None

let fold_cmp pred (a : const_val) (b : const_val) : bool option =
  let cmp c = Some c in
  match a, b with
  | Ci x, Ci y -> begin
    match pred with
    | Op.Eq -> cmp (x = y)
    | Op.Ne -> cmp (x <> y)
    | Op.Lt -> cmp (x < y)
    | Op.Le -> cmp (x <= y)
    | Op.Gt -> cmp (x > y)
    | Op.Ge -> cmp (x >= y)
  end
  | Cf x, Cf y -> begin
    match pred with
    | Op.Eq -> cmp (x = y)
    | Op.Ne -> cmp (x <> y)
    | Op.Lt -> cmp (x < y)
    | Op.Le -> cmp (x <= y)
    | Op.Gt -> cmp (x > y)
    | Op.Ge -> cmp (x >= y)
  end
  | _ -> None

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

let materialize_const st (op : Op.op) (c : const_val) : Op.op list =
  let d = result_dtype op in
  let k =
    match c with
    | Ci n -> Builder.const_int ~dtype:d n
    | Cf f -> Builder.const_float ~dtype:d f
  in
  Value.Tbl.replace st.consts (Op.result k) c;
  Clone.add_subst st.subst ~from:(Op.result op) ~to_:(Op.result k);
  [ k ]

(* One canonicalization step for one op (operands already substituted). *)
let simplify_op st (op : Op.op) : Op.op list =
  match op.kind with
  | Op.Constant (Op.Cint (n, _)) ->
    Value.Tbl.replace st.consts (Op.result op) (Ci n);
    [ op ]
  | Op.Constant (Op.Cfloat (f, _)) ->
    Value.Tbl.replace st.consts (Op.result op) (Cf f);
    [ op ]
  | Op.Binop kind -> begin
    let a = op.operands.(0) and b = op.operands.(1) in
    match const_of st a, const_of st b with
    | Some ca, Some cb -> begin
      match fold_binop kind ca cb with
      | Some c -> materialize_const st op c
      | None -> [ op ]
    end
    | ca, cb -> begin
      (* algebraic identities *)
      let is0 = function Some (Ci 0) | Some (Cf 0.0) -> true | _ -> false in
      let is1 = function Some (Ci 1) | Some (Cf 1.0) -> true | _ -> false in
      match kind with
      | Op.Add when is0 ca -> replace_with st op b
      | Op.Add when is0 cb -> replace_with st op a
      | Op.Sub when is0 cb -> replace_with st op a
      | Op.Mul when is1 ca -> replace_with st op b
      | Op.Mul when is1 cb -> replace_with st op a
      | (Op.Mul | Op.And) when is0 ca && not (Types.is_float_dtype (result_dtype op)) ->
        replace_with st op a
      | (Op.Mul | Op.And) when is0 cb && not (Types.is_float_dtype (result_dtype op)) ->
        replace_with st op b
      | Op.Div when is1 cb -> replace_with st op a
      | (Op.Or | Op.Xor | Op.Shl | Op.Shr) when is0 cb -> replace_with st op a
      | Op.Sub when Value.equal a b && not (Types.is_float_dtype (result_dtype op)) ->
        materialize_const st op (Ci 0)
      | _ -> [ op ]
    end
  end
  | Op.Cmp pred -> begin
    match const_of st op.operands.(0), const_of st op.operands.(1) with
    | Some ca, Some cb -> begin
      match fold_cmp pred ca cb with
      | Some c -> materialize_const st op (Ci (if c then 1 else 0))
      | None -> [ op ]
    end
    | _ ->
      if Value.equal op.operands.(0) op.operands.(1) then begin
        match pred with
        | Op.Eq | Op.Le | Op.Ge -> materialize_const st op (Ci 1)
        | Op.Ne | Op.Lt | Op.Gt -> materialize_const st op (Ci 0)
      end
      else [ op ]
  end
  | Op.Select -> begin
    match const_of st op.operands.(0) with
    | Some (Ci 0) -> replace_with st op op.operands.(2)
    | Some (Ci _) -> replace_with st op op.operands.(1)
    | _ ->
      if Value.equal op.operands.(1) op.operands.(2) then
        replace_with st op op.operands.(1)
      else [ op ]
  end
  | Op.Cast d -> begin
    let src = op.operands.(0) in
    let same =
      match src.typ with
      | Types.Scalar s ->
        s = d
        || (Types.is_int_dtype s && Types.is_int_dtype d && d <> Types.I1
            && s <> Types.I1)
      | Types.Memref _ -> false
    in
    if same then replace_with st op src
    else begin
      match const_of st src with
      | Some (Ci n) when Types.is_float_dtype d -> materialize_const st op (Cf (float_of_int n))
      | Some (Ci n) when d = Types.I1 -> materialize_const st op (Ci (if n <> 0 then 1 else 0))
      | Some (Ci n) -> materialize_const st op (Ci n)
      | Some (Cf f) when not (Types.is_float_dtype d) ->
        materialize_const st op (Ci (int_of_float f))
      | Some (Cf f) when d = Types.F32 ->
        materialize_const st op (Cf (Int32.float_of_bits (Int32.bits_of_float f)))
      | _ -> [ op ]
    end
  end
  | Op.Math fn -> begin
    match Array.to_list (Array.map (const_of st) op.operands) with
    | [ Some (Cf x) ] -> begin
      let r =
        match fn with
        | Op.Sqrt -> Some (sqrt x)
        | Op.Exp -> Some (exp x)
        | Op.Log -> Some (log x)
        | Op.Log2 -> Some (log x /. log 2.0)
        | Op.Fabs -> Some (Float.abs x)
        | Op.Floor -> Some (Float.floor x)
        | Op.Neg -> Some (-.x)
        | Op.Sin -> Some (sin x)
        | Op.Cos -> Some (cos x)
        | Op.Tanh -> Some (tanh x)
        | Op.Not | Op.Erf | Op.Pow -> None
      in
      match r with
      | Some f -> materialize_const st op (Cf f)
      | None -> [ op ]
    end
    | [ Some (Cf x); Some (Cf y) ] when fn = Op.Pow ->
      materialize_const st op (Cf (Float.pow x y))
    | _ -> [ op ]
  end
  | Op.For -> begin
    (* a zero-trip loop is its inits — but only a positive literal step
       is sure not to trap, so anything else stays for the run to
       reject *)
    match
      ( const_of st (Op.for_lo op)
      , const_of st (Op.for_hi op)
      , const_of st (Op.for_step op) )
    with
    | Some (Ci lo), Some (Ci hi), Some (Ci step) when lo >= hi && step > 0 ->
      replace_results st op (Op.for_inits op)
    | _ -> [ op ]
  end
  | _ -> [ op ]

(* Apply the substitution to an op's operands in place. *)
let apply_subst st (op : Op.op) =
  op.operands <- Array.map (Clone.lookup st.subst) op.operands

let positive_step st (op : Op.op) =
  match const_of st (Op.for_step op) with Some (Ci n) -> n > 0 | _ -> false

(* A region whose body is just [scf.yield vs]: the values it yields. *)
let lone_yield (r : Op.region) : Value.t array option =
  match r.body with
  | [ { Op.kind = Op.Yield; operands; _ } ] -> Some operands
  | _ -> None

let rec walk st (op : Op.op) : Op.op list =
  apply_subst st op;
  (* top-down so region bodies see outer constants *)
  let const_cond =
    match op.kind with
    | Op.If -> const_of st op.operands.(0)
    | _ -> None
  in
  match const_cond with
  | Some (Ci c) ->
    (* a constant condition inlines the taken branch, whose yielded
       values stand for the results *)
    inline_region st (if c <> 0 then op.regions.(0) else op.regions.(1))
      op.results
  | Some (Cf _) | None -> begin
    match simplify_op st op with
    | [ o ] when o == op ->
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

let is_pure (op : Op.op) =
  match op.kind with
  | Op.Constant _ | Op.Binop _ | Op.Cmp _ | Op.Select | Op.Cast _ | Op.Math _
  | Op.Dim _ ->
    true
  | _ -> false

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

(* Bottom-up: an op whose results are unused goes when it is pure, or
   when it is an [scf.if] or an [scf.for] whose regions hold nothing
   but such ops and yields — a loop only with a positive literal step,
   since any other step may trap.  Children go first, so a whole empty
   nest collapses in one round. *)
let dce st (root : Op.op) : bool =
  let changed = ref false in
  let continue_ = ref true in
  while !continue_ do
    let uses = count_uses root in
    let used v = Value.Tbl.mem uses v in
    let rec effect_free (op : Op.op) =
      is_pure op
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
