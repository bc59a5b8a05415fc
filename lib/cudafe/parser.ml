(* Recursive-descent parser for mini-CUDA.  Expressions use precedence
   climbing; statements and declarations follow C syntax closely enough
   that the Rodinia kernels can be written naturally. *)

exception Error of string

type state =
  { toks : Lexer.postoken array
  ; mutable pos : int
  }

let fail st fmt =
  let t = st.toks.(st.pos) in
  Printf.ksprintf
    (fun s ->
      raise
        (Error
           (Printf.sprintf "parse error at line %d col %d (near '%s'): %s"
              t.line t.col
              (Lexer.token_to_string t.tok)
              s)))
    fmt

let peek st = st.toks.(st.pos).tok
let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).tok
  else Lexer.EOF

let advance st = st.pos <- st.pos + 1

let eat_punct st p =
  match peek st with
  | Lexer.PUNCT q when q = p -> advance st
  | _ -> fail st "expected '%s'" p

let eat_kw st k =
  match peek st with
  | Lexer.KW q when q = k -> advance st
  | _ -> fail st "expected '%s'" k

let accept_punct st p =
  match peek st with
  | Lexer.PUNCT q when q = p ->
    advance st;
    true
  | _ -> false

let accept_kw st k =
  match peek st with
  | Lexer.KW q when q = k ->
    advance st;
    true
  | _ -> false

let expect_ident st =
  match peek st with
  | Lexer.IDENT s ->
    advance st;
    s
  | _ -> fail st "expected identifier"

(* --- types --- *)

let is_type_start st =
  match peek st with
  | Lexer.KW ("void" | "bool" | "int" | "long" | "float" | "double"
             | "unsigned" | "const" | "static") ->
    true
  | _ -> false

let rec parse_base_type st =
  if accept_kw st "const" || accept_kw st "static" then parse_base_type st
  else if accept_kw st "unsigned" then begin
    (* unsigned int / unsigned long / bare unsigned *)
    if accept_kw st "int" then Ast.Tint
    else if accept_kw st "long" then Ast.Tlong
    else Ast.Tint
  end
  else if accept_kw st "void" then Ast.Tvoid
  else if accept_kw st "bool" then Ast.Tbool
  else if accept_kw st "int" then Ast.Tint
  else if accept_kw st "long" then begin
    ignore (accept_kw st "long");
    ignore (accept_kw st "int");
    Ast.Tlong
  end
  else if accept_kw st "float" then Ast.Tfloat
  else if accept_kw st "double" then Ast.Tdouble
  else fail st "expected type"

let parse_type st =
  let base = parse_base_type st in
  let rec stars t =
    if accept_punct st "*" then begin
      ignore (accept_kw st "const");
      ignore (accept_kw st "__restrict__");
      stars (Ast.Tptr t)
    end
    else t
  in
  stars base

(* --- expressions --- *)

let builtin_of_ident = function
  | "threadIdx" -> Some Ast.Thread_idx
  | "blockIdx" -> Some Ast.Block_idx
  | "blockDim" -> Some Ast.Block_dim
  | "gridDim" -> Some Ast.Grid_dim
  | _ -> None

let dim_of_field st = function
  | "x" -> Ast.X
  | "y" -> Ast.Y
  | "z" -> Ast.Z
  | f -> fail st "unknown SIMT field '.%s'" f

(* Binary operator precedence (higher binds tighter). *)
let binop_prec = function
  | "*" -> Some (10, Ast.Bmul)
  | "/" -> Some (10, Ast.Bdiv)
  | "%" -> Some (10, Ast.Bmod)
  | "+" -> Some (9, Ast.Badd)
  | "-" -> Some (9, Ast.Bsub)
  | "<<" -> Some (8, Ast.Bshl)
  | ">>" -> Some (8, Ast.Bshr)
  | "<" -> Some (7, Ast.Blt)
  | "<=" -> Some (7, Ast.Ble)
  | ">" -> Some (7, Ast.Bgt)
  | ">=" -> Some (7, Ast.Bge)
  | "==" -> Some (6, Ast.Beq)
  | "!=" -> Some (6, Ast.Bne)
  | "&" -> Some (5, Ast.Bband)
  | "^" -> Some (4, Ast.Bxor)
  | "|" -> Some (3, Ast.Bbor)
  | "&&" -> Some (2, Ast.Bland)
  | "||" -> Some (1, Ast.Blor)
  | _ -> None

let rec parse_expr st = parse_assign st

and parse_assign st =
  let lhs = parse_ternary st in
  match peek st with
  | Lexer.PUNCT "=" ->
    advance st;
    Ast.E_assign (lhs, parse_assign st)
  | Lexer.PUNCT "+=" ->
    advance st;
    Ast.E_opassign (Ast.Badd, lhs, parse_assign st)
  | Lexer.PUNCT "-=" ->
    advance st;
    Ast.E_opassign (Ast.Bsub, lhs, parse_assign st)
  | Lexer.PUNCT "*=" ->
    advance st;
    Ast.E_opassign (Ast.Bmul, lhs, parse_assign st)
  | Lexer.PUNCT "/=" ->
    advance st;
    Ast.E_opassign (Ast.Bdiv, lhs, parse_assign st)
  | Lexer.PUNCT "%=" ->
    advance st;
    Ast.E_opassign (Ast.Bmod, lhs, parse_assign st)
  | Lexer.PUNCT "&=" ->
    advance st;
    Ast.E_opassign (Ast.Bband, lhs, parse_assign st)
  | Lexer.PUNCT "|=" ->
    advance st;
    Ast.E_opassign (Ast.Bbor, lhs, parse_assign st)
  | Lexer.PUNCT "^=" ->
    advance st;
    Ast.E_opassign (Ast.Bxor, lhs, parse_assign st)
  | _ -> lhs

and parse_ternary st =
  let c = parse_binary st 0 in
  if accept_punct st "?" then begin
    let a = parse_assign st in
    eat_punct st ":";
    let b = parse_ternary st in
    Ast.E_cond (c, a, b)
  end
  else c

and parse_binary st min_prec =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Lexer.PUNCT p ->
      (match binop_prec p with
       | Some (prec, op) when prec >= min_prec ->
         advance st;
         let rhs = parse_binary st (prec + 1) in
         lhs := Ast.E_bin (op, !lhs, rhs)
       | _ -> continue_ := false)
    | _ -> continue_ := false
  done;
  !lhs

and parse_unary st =
  match peek st with
  | Lexer.PUNCT "-" ->
    advance st;
    Ast.E_un (Ast.Uneg, parse_unary st)
  | Lexer.PUNCT "+" ->
    advance st;
    parse_unary st
  | Lexer.PUNCT "!" ->
    advance st;
    Ast.E_un (Ast.Unot, parse_unary st)
  | Lexer.PUNCT "~" ->
    advance st;
    Ast.E_un (Ast.Ubnot, parse_unary st)
  | Lexer.PUNCT "*" ->
    advance st;
    Ast.E_deref (parse_unary st)
  | Lexer.PUNCT "++" ->
    advance st;
    Ast.E_incr (parse_unary st)
  | Lexer.PUNCT "--" ->
    advance st;
    Ast.E_decr (parse_unary st)
  | Lexer.PUNCT "(" when is_cast st -> begin
    advance st;
    let t = parse_type st in
    eat_punct st ")";
    Ast.E_cast (t, parse_unary st)
  end
  | _ -> parse_postfix st

(* A '(' starts a cast iff the next token is a type keyword. *)
and is_cast st =
  match peek2 st with
  | Lexer.KW ("void" | "bool" | "int" | "long" | "float" | "double"
             | "unsigned") ->
    true
  | _ -> false

and parse_postfix st =
  let e = ref (parse_primary st) in
  let continue_ = ref true in
  while !continue_ do
    match peek st with
    | Lexer.PUNCT "[" ->
      advance st;
      let idx = parse_expr st in
      eat_punct st "]";
      (* collapse chained subscripts into one E_index for 2-D arrays *)
      (e :=
         match !e with
         | Ast.E_index (b, idxs) -> Ast.E_index (b, idxs @ [ idx ])
         | b -> Ast.E_index (b, [ idx ]))
    | Lexer.PUNCT "++" ->
      advance st;
      e := Ast.E_incr !e
    | Lexer.PUNCT "--" ->
      advance st;
      e := Ast.E_decr !e
    | Lexer.PUNCT "." -> begin
      advance st;
      let f = expect_ident st in
      match !e with
      | Ast.E_id id -> begin
        match builtin_of_ident id with
        | Some b -> e := Ast.E_builtin (b, dim_of_field st f)
        | None -> fail st "member access only supported on SIMT builtins"
      end
      | _ -> fail st "member access only supported on SIMT builtins"
    end
    | _ -> continue_ := false
  done;
  !e

and parse_primary st =
  match peek st with
  | Lexer.INT n ->
    advance st;
    Ast.E_int n
  | Lexer.FLOAT (f, d) ->
    advance st;
    Ast.E_float (f, d)
  | Lexer.PUNCT "(" ->
    advance st;
    let e = parse_expr st in
    eat_punct st ")";
    e
  | Lexer.IDENT name -> begin
    advance st;
    match peek st with
    | Lexer.PUNCT "(" ->
      advance st;
      let args = parse_args st in
      Ast.E_call (name, args)
    | _ -> Ast.E_id name
  end
  | Lexer.KW "sizeof" ->
    advance st;
    eat_punct st "(";
    let t = parse_type st in
    eat_punct st ")";
    let bytes =
      match t with
      | Ast.Tbool -> 1
      | Ast.Tint | Ast.Tfloat -> 4
      | Ast.Tlong | Ast.Tdouble | Ast.Tptr _ -> 8
      | Ast.Tvoid -> fail st "sizeof(void)"
    in
    Ast.E_int bytes
  | t -> fail st "unexpected token '%s' in expression" (Lexer.token_to_string t)

and parse_args st =
  if accept_punct st ")" then []
  else begin
    let rec loop acc =
      let e = parse_expr st in
      if accept_punct st "," then loop (e :: acc)
      else begin
        eat_punct st ")";
        List.rev (e :: acc)
      end
    in
    loop []
  end

(* --- statements --- *)

(* Location of the token the parser is currently looking at. *)
let cur_loc st : Ir.Srcloc.t =
  let t = st.toks.(st.pos) in
  Ir.Srcloc.v ~line:t.line ~col:t.col

let parse_dim3 st : Ast.dim3 =
  match peek st with
  | Lexer.KW "dim3" ->
    advance st;
    eat_punct st "(";
    let a = parse_expr st in
    let b = if accept_punct st "," then Some (parse_expr st) else None in
    let c = if accept_punct st "," then Some (parse_expr st) else None in
    eat_punct st ")";
    (a, b, c)
  | _ -> (parse_expr st, None, None)

let rec parse_stmt st : Ast.stmt =
  let loc = cur_loc st in
  match peek st with
  | Lexer.PRAGMA p -> begin
    advance st;
    (* recognized: "omp parallel for" (with optional clauses); other
       pragmas are ignored *)
    let is_par_for =
      String.length p >= 16 && String.sub p 0 16 = "omp parallel for"
    in
    if not is_par_for then parse_stmt st
    else begin
      let s = parse_stmt st in
      match s.s with
      | Ast.S_for (h, body) -> { s with s = Ast.S_omp_for (h, body) }
      | _ -> fail st "#pragma omp parallel for must precede a for loop"
    end
  end
  | Lexer.PUNCT "{" ->
    advance st;
    Ast.at loc (Ast.S_block (parse_block st))
  | Lexer.PUNCT ";" ->
    advance st;
    Ast.at loc (Ast.S_block [])
  | Lexer.KW "if" ->
    advance st;
    eat_punct st "(";
    let c = parse_expr st in
    eat_punct st ")";
    let then_ = parse_stmt_as_block st in
    let else_ =
      if accept_kw st "else" then parse_stmt_as_block st else []
    in
    Ast.at loc (Ast.S_if (c, then_, else_))
  | Lexer.KW "while" ->
    advance st;
    eat_punct st "(";
    let c = parse_expr st in
    eat_punct st ")";
    Ast.at loc (Ast.S_while (c, parse_stmt_as_block st))
  | Lexer.KW "do" ->
    advance st;
    let body = parse_stmt_as_block st in
    eat_kw st "while";
    eat_punct st "(";
    let c = parse_expr st in
    eat_punct st ")";
    eat_punct st ";";
    Ast.at loc (Ast.S_do_while (body, c))
  | Lexer.KW "for" ->
    advance st;
    eat_punct st "(";
    (* [for (int a = 0, b = 1; ...)]: the loop's own initializer is the
       last declarator; the others go before it, in a block that scopes
       them to the loop as C does *)
    let outer, init =
      if accept_punct st ";" then ([], None)
      else if is_type_start st then begin
        match List.rev (parse_decls st) with
        | last :: before -> (List.rev before, Some last)
        | [] -> ([], None)
      end
      else begin
        let iloc = cur_loc st in
        let e = parse_expr st in
        eat_punct st ";";
        ([], Some (Ast.at iloc (Ast.S_expr e)))
      end
    in
    let cond =
      if accept_punct st ";" then None
      else begin
        let e = parse_expr st in
        eat_punct st ";";
        Some e
      end
    in
    let step =
      match peek st with
      | Lexer.PUNCT ")" ->
        advance st;
        None
      | _ ->
        let e = parse_expr st in
        eat_punct st ")";
        Some e
    in
    let body = parse_stmt_as_block st in
    let loop =
      Ast.at loc (Ast.S_for ({ f_init = init; f_cond = cond; f_step = step }, body))
    in
    if outer = [] then loop else Ast.at loc (Ast.S_block (outer @ [ loop ]))
  | Lexer.KW "return" ->
    advance st;
    if accept_punct st ";" then Ast.at loc (Ast.S_return None)
    else begin
      let e = parse_expr st in
      eat_punct st ";";
      Ast.at loc (Ast.S_return (Some e))
    end
  | Lexer.KW "break" -> fail st "break is not supported"
  | Lexer.KW "continue" -> fail st "continue is not supported"
  | Lexer.KW "__shared__" -> decl_stmt st
  | Lexer.KW _ when is_type_start st -> decl_stmt st
  | Lexer.IDENT "__syncthreads" when peek2 st = Lexer.PUNCT "(" ->
    advance st;
    eat_punct st "(";
    eat_punct st ")";
    eat_punct st ";";
    Ast.at loc Ast.S_sync
  | Lexer.IDENT name when peek2 st = Lexer.PUNCT "<<<" ->
    advance st;
    advance st;
    let grid = parse_dim3 st in
    eat_punct st ",";
    let block = parse_dim3 st in
    eat_punct st ">>>";
    eat_punct st "(";
    let args = parse_args st in
    eat_punct st ";";
    Ast.at loc (Ast.S_launch (name, grid, block, args))
  | _ ->
    let e = parse_expr st in
    eat_punct st ";";
    Ast.at loc (Ast.S_expr e)

and parse_stmt_as_block st : Ast.stmt list =
  let s = parse_stmt st in
  match s.s with
  | Ast.S_block b -> b
  | _ -> [ s ]

(* A block's declarations belong to the block's own scope, however many
   declarators one statement has. *)
and parse_block st : Ast.stmt list =
  let rec loop acc =
    if accept_punct st "}" then List.rev acc
    else if peek st = Lexer.KW "__shared__" || is_type_start st then
      loop (List.rev_append (parse_decls st) acc)
    else loop (parse_stmt st :: acc)
  in
  loop []

(* A declaration where one statement stands (an [if] arm): its own
   scope. *)
and decl_stmt st : Ast.stmt =
  let loc = cur_loc st in
  match parse_decls st with
  | [ d ] -> d
  | ds -> Ast.at loc (Ast.S_block ds)

(* One declaration statement: an [S_decl] per declarator, in order. *)
and parse_decls st : Ast.stmt list =
  let loc = cur_loc st in
  let shared = accept_kw st "__shared__" in
  let shared = shared || accept_kw st "__shared__" in
  let t = parse_type st in
  let rec one_decl acc =
    let dloc = cur_loc st in
    let name = expect_ident st in
    let dims = ref [] in
    while accept_punct st "[" do
      let d = parse_expr st in
      eat_punct st "]";
      dims := !dims @ [ d ]
    done;
    let init = if accept_punct st "=" then Some (parse_expr st) else None in
    let d =
      { Ast.d_type = t
      ; d_shared = shared
      ; d_name = name
      ; d_dims = !dims
      ; d_init = init
      ; d_loc = dloc
      }
    in
    if accept_punct st "," then one_decl (d :: acc)
    else begin
      eat_punct st ";";
      List.rev (d :: acc)
    end
  in
  match one_decl [] with
  | [ d ] -> [ Ast.at loc (Ast.S_decl d) ]
  | ds -> List.map (fun d -> Ast.at d.Ast.d_loc (Ast.S_decl d)) ds

(* --- top level --- *)

let parse_qualifier st =
  if accept_kw st "__global__" then Some Ast.Q_global
  else if accept_kw st "__device__" then Some Ast.Q_device
  else if accept_kw st "__host__" then Some Ast.Q_host
  else None

let parse_func st : Ast.func =
  let loc = cur_loc st in
  let qual = match parse_qualifier st with Some q -> q | None -> Ast.Q_host in
  let ret = parse_type st in
  let name = expect_ident st in
  eat_punct st "(";
  let params =
    if accept_punct st ")" then []
    else begin
      let rec loop acc =
        let t = parse_type st in
        let n = expect_ident st in
        (* accept trailing [] on parameters: decays to pointer *)
        let t =
          if accept_punct st "[" then begin
            eat_punct st "]";
            Ast.Tptr t
          end
          else t
        in
        if accept_punct st "," then loop ((t, n) :: acc)
        else begin
          eat_punct st ")";
          List.rev ((t, n) :: acc)
        end
      in
      loop []
    end
  in
  eat_punct st "{";
  let body = parse_block st in
  { fn_qual = qual; fn_ret = ret; fn_name = name; fn_params = params
  ; fn_body = body; fn_loc = loc
  }

let parse_program (src : string) : Ast.program =
  let st = { toks = Lexer.tokenize src; pos = 0 } in
  let rec loop acc =
    match peek st with
    | Lexer.EOF -> List.rev acc
    | _ -> loop (parse_func st :: acc)
  in
  loop []
