(* MLIR-flavoured textual printer.  Used for golden tests, debugging and
   the CLI's [-emit-ir] mode.  The format is not re-parsed; programs are
   constructed through [Builder] or the CUDA frontend. *)

let buf_add = Buffer.add_string

let value v = Value.to_string v

let values vs = String.concat ", " (List.map value (Array.to_list vs))

let types vs =
  String.concat ", "
    (List.map (fun (v : Value.t) -> Types.to_string v.typ) (Array.to_list vs))

let const_to_string = function
  | Op.Cint (n, d) -> Printf.sprintf "%d : %s" n (Types.dtype_to_string d)
  | Op.Cfloat (f, d) -> Printf.sprintf "%g : %s" f (Types.dtype_to_string d)

let attr_to_string (name, a) =
  let v =
    match a with
    | Op.Aint i -> string_of_int i
    | Op.Afloat f -> string_of_float f
    | Op.Astr s -> Printf.sprintf "%S" s
    | Op.Abool b -> string_of_bool b
  in
  Printf.sprintf "%s = %s" name v

let attrs_to_string = function
  | [] -> ""
  | l -> " {" ^ String.concat ", " (List.map attr_to_string l) ^ "}"

let rec print_op ?(locs = false) b indent (op : Op.op) =
  let pad = String.make indent ' ' in
  let res =
    if Array.length op.results = 0 then ""
    else values op.results ^ " = "
  in
  let lsuf =
    match op.loc with
    | Some l when locs -> Printf.sprintf " loc(%s)" (Srcloc.to_string l)
    | _ -> ""
  in
  let line s =
    buf_add b (pad ^ res ^ s ^ attrs_to_string op.attrs ^ lsuf ^ "\n")
  in
  let line_no_attr s = buf_add b (pad ^ res ^ s ^ lsuf ^ "\n") in
  let print_op = print_op ~locs in
  let region ?(hdr = "") i =
    buf_add b (pad ^ hdr ^ "{\n");
    List.iter (print_op b (indent + 2)) op.regions.(i).body;
    buf_add b (pad ^ "}\n")
  in
  match op.kind with
  | Module ->
    buf_add b (pad ^ "module {\n");
    List.iter (print_op b (indent + 2)) op.regions.(0).body;
    buf_add b (pad ^ "}\n")
  | Func { name; ret } ->
    let params =
      Array.to_list op.regions.(0).rargs
      |> List.map (fun (a : Value.t) ->
          Printf.sprintf "%s: %s" (value a) (Types.to_string a.typ))
      |> String.concat ", "
    in
    let rets =
      match ret with
      | None -> ""
      | Some t -> " -> " ^ Types.to_string t
    in
    buf_add b
      (Printf.sprintf "%sfunc.func @%s(%s)%s {\n" pad name params rets);
    List.iter (print_op b (indent + 2)) op.regions.(0).body;
    buf_add b (pad ^ "}\n")
  | Return -> line_no_attr (Printf.sprintf "func.return %s" (values op.operands))
  | Call name ->
    line
      (Printf.sprintf "func.call @%s(%s)" name (values op.operands))
  | Constant c -> line_no_attr (Printf.sprintf "arith.constant %s" (const_to_string c))
  | Binop k ->
    let d = (Op.result op).typ in
    let pre = if Types.is_float_dtype (Types.scalar_dtype d) then "f" else "i" in
    line
      (Printf.sprintf "arith.%s%s %s : %s" (Op.binop_to_string k) pre
         (values op.operands) (Types.to_string d))
  | Cmp p ->
    line
      (Printf.sprintf "arith.cmp %s, %s" (Op.cmp_to_string p)
         (values op.operands))
  | Select -> line (Printf.sprintf "arith.select %s" (values op.operands))
  | Cast d ->
    line
      (Printf.sprintf "arith.cast %s : %s" (values op.operands)
         (Types.dtype_to_string d))
  | Math f ->
    line (Printf.sprintf "math.%s %s" (Op.math_to_string f) (values op.operands))
  | Alloc ->
    line
      (Printf.sprintf "memref.alloc(%s) : %s" (values op.operands)
         (Types.to_string (Op.result op).typ))
  | Alloca ->
    line (Printf.sprintf "memref.alloca : %s" (Types.to_string (Op.result op).typ))
  | Dealloc -> line (Printf.sprintf "memref.dealloc %s" (values op.operands))
  | Load ->
    line
      (Printf.sprintf "memref.load %s[%s]"
         (value op.operands.(0))
         (values (Array.sub op.operands 1 (Array.length op.operands - 1))))
  | Store ->
    line
      (Printf.sprintf "memref.store %s, %s[%s]"
         (value op.operands.(0))
         (value op.operands.(1))
         (values (Array.sub op.operands 2 (Array.length op.operands - 2))))
  | Copy ->
    line
      (Printf.sprintf "memref.copy %s, %s"
         (value op.operands.(0))
         (value op.operands.(1)))
  | Dim i -> line (Printf.sprintf "memref.dim %s, %d" (value op.operands.(0)) i)
  | For ->
    let iter =
      match Op.for_inits op with
      | [||] -> ""
      | inits ->
        let pairs =
          Array.to_list
            (Array.map2
               (fun a i -> value a ^ " = " ^ value i)
               (Op.for_iter_args op) inits)
        in
        Printf.sprintf "iter_args(%s) -> (%s) " (String.concat ", " pairs)
          (types op.results)
    in
    buf_add b
      (Printf.sprintf "%s%sscf.for %s = %s to %s step %s %s" pad res
         (value (Op.for_iv op))
         (value (Op.for_lo op))
         (value (Op.for_hi op))
         (value (Op.for_step op))
         iter);
    buf_add b "{\n";
    List.iter (print_op b (indent + 2)) op.regions.(0).body;
    buf_add b (pad ^ "}\n")
  | While ->
    region ~hdr:"scf.while cond " 0;
    region ~hdr:"do " 1
  | If ->
    let rtys =
      if Array.length op.results = 0 then ""
      else Printf.sprintf " -> (%s)" (types op.results)
    in
    buf_add b
      (Printf.sprintf "%s%sscf.if %s%s {\n" pad res (value op.operands.(0)) rtys);
    List.iter (print_op b (indent + 2)) op.regions.(0).body;
    if op.regions.(1).body <> [] then begin
      buf_add b (pad ^ "} else {\n");
      List.iter (print_op b (indent + 2)) op.regions.(1).body
    end;
    buf_add b (pad ^ "}\n")
  | Parallel k ->
    let n = Op.par_dims op in
    let ivs = values op.regions.(0).rargs in
    let sub o l = values (Array.sub op.operands o l) in
    buf_add b
      (Printf.sprintf "%sscf.parallel<%s> (%s) = (%s) to (%s) step (%s) {\n"
         pad (Op.par_kind_to_string k) ivs (sub 0 n) (sub n n) (sub (2 * n) n));
    List.iter (print_op b (indent + 2)) op.regions.(0).body;
    buf_add b (pad ^ "}\n")
  | Barrier -> line "polygeist.barrier"
  | Yield ->
    line
      (if Array.length op.operands = 0 then "scf.yield"
       else "scf.yield " ^ values op.operands)
  | Condition ->
    line (Printf.sprintf "scf.condition %s" (value op.operands.(0)))
  | OmpParallel ->
    buf_add b (pad ^ "omp.parallel" ^ attrs_to_string op.attrs ^ " {\n");
    List.iter (print_op b (indent + 2)) op.regions.(0).body;
    buf_add b (pad ^ "}\n")
  | OmpWsloop ->
    let n = Op.par_dims op in
    let ivs = values op.regions.(0).rargs in
    let sub o l = values (Array.sub op.operands o l) in
    buf_add b
      (Printf.sprintf "%somp.wsloop (%s) = (%s) to (%s) step (%s) {\n" pad ivs
         (sub 0 n) (sub n n) (sub (2 * n) n));
    List.iter (print_op b (indent + 2)) op.regions.(0).body;
    buf_add b (pad ^ "}\n")
  | OmpBarrier -> line "omp.barrier"

let op_to_string ?locs op =
  let b = Buffer.create 1024 in
  print_op ?locs b 0 op;
  Buffer.contents b
