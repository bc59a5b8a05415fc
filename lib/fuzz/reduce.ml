(* Automatic test-case reducer, llvm-reduce style: given a program and
   the oracle failure it witnesses, greedily apply source-level edits
   and keep each one iff the edited program still fails the same way
   (same stage, same failure class — {!Oracle.same_failure}).

   Edit families, tried in order on every program point:
   - statement deletion (including barriers),
   - region deletion: replace an [if]/[for]/[while]/[do]/block by one of
     its branches or its body (a [for] body keeps the header's init
     declaration so the induction variable stays defined),
   - loop-bound / constant shrinking: integer literals step toward 0,
     float literals toward 1.0 then 0.0,
   - expression simplification: a compound expression collapses to one
     of its operands.

   Every edit strictly shrinks the program (fewer statements, smaller
   literals, or a smaller expression tree), so the greedy fixpoint
   terminates; [max_checks] additionally bounds the oracle budget.
   Candidates that no longer compile simply fail with a different class
   ("frontend") and are rejected — no validity analysis needed. *)

open Cudafe.Ast

(* Pre-order counter-indexed rewriting of every statement in a body.
   [f i st] returning [Some l] replaces statement [i] by [l] (no
   recursion into the replacement — indices refer to the input tree). *)
let rec map_stmts f ctr (l : stmt list) : stmt list =
  List.concat_map
    (fun st ->
      let i = !ctr in
      incr ctr;
      match f i st with
      | Some repl -> repl
      | None -> [ { st with s = map_kind f ctr st.s } ])
    l

and map_kind f ctr (k : stmt_kind) : stmt_kind =
  match k with
  | S_if (c, a, b) -> S_if (c, map_stmts f ctr a, map_stmts f ctr b)
  | S_for (h, b) -> S_for (h, map_stmts f ctr b)
  | S_omp_for (h, b) -> S_omp_for (h, map_stmts f ctr b)
  | S_while (c, b) -> S_while (c, map_stmts f ctr b)
  | S_do_while (b, c) -> S_do_while (map_stmts f ctr b, c)
  | S_block b -> S_block (map_stmts f ctr b)
  | (S_decl _ | S_expr _ | S_return _ | S_sync | S_launch _) as k -> k

let map_program_stmts f (p : program) : program =
  let ctr = ref 0 in
  List.map (fun fn -> { fn with fn_body = map_stmts f ctr fn.fn_body }) p

(* Statement count = how far the traversal's own counter runs. *)
let count_stmts (p : program) : int =
  let ctr = ref 0 in
  ignore (List.map (fun fn -> map_stmts (fun _ _ -> None) ctr fn.fn_body) p);
  !ctr

(* The region-deletion replacements for one statement (deletion itself,
   [Some []], is always tried first by the driver loop). *)
let stmt_variants (st : stmt) : stmt list list =
  let keep_init h body =
    match h.f_init with Some s0 -> s0 :: body | None -> body
  in
  match st.s with
  | S_if (_, a, []) -> [ a ]
  | S_if (_, a, b) -> [ a; b ]
  | S_for (h, b) | S_omp_for (h, b) -> [ keep_init h b ]
  | S_while (_, b) -> [ b ]
  | S_do_while (b, _) -> [ b ]
  | S_block b -> [ b ]
  | S_decl _ | S_expr _ | S_return _ | S_sync | S_launch _ -> []

(* Pre-order counter-indexed rewriting of every expression. *)
let rec map_expr f ctr (e : expr) : expr =
  let i = !ctr in
  incr ctr;
  match f i e with
  | Some e' -> e'
  | None -> (
    match e with
    | E_int _ | E_float _ | E_id _ | E_builtin _ -> e
    | E_bin (op, a, b) -> E_bin (op, map_expr f ctr a, map_expr f ctr b)
    | E_un (op, a) -> E_un (op, map_expr f ctr a)
    | E_call (g, l) -> E_call (g, List.map (map_expr f ctr) l)
    | E_index (a, l) ->
      let a = map_expr f ctr a in
      E_index (a, List.map (map_expr f ctr) l)
    | E_deref a -> E_deref (map_expr f ctr a)
    | E_cast (t, a) -> E_cast (t, map_expr f ctr a)
    | E_cond (c, a, b) ->
      let c = map_expr f ctr c in
      let a = map_expr f ctr a in
      E_cond (c, a, b |> map_expr f ctr)
    | E_assign (l, r) ->
      let l = map_expr f ctr l in
      E_assign (l, map_expr f ctr r)
    | E_opassign (op, l, r) ->
      let l = map_expr f ctr l in
      E_opassign (op, l, map_expr f ctr r)
    | E_incr a -> E_incr (map_expr f ctr a)
    | E_decr a -> E_decr (map_expr f ctr a))

let map_decl_exprs f ctr (d : decl) =
  { d with
    d_dims = List.map (map_expr f ctr) d.d_dims
  ; d_init = Option.map (map_expr f ctr) d.d_init
  }

let rec map_header_exprs f ctr (h : for_header) =
  { f_init = Option.map (fun s -> stmt_map_expr f ctr s) h.f_init
  ; f_cond = Option.map (map_expr f ctr) h.f_cond
  ; f_step = Option.map (map_expr f ctr) h.f_step
  }

and stmt_map_expr f ctr (st : stmt) : stmt =
  let k =
    match st.s with
    | S_decl d -> S_decl (map_decl_exprs f ctr d)
    | S_expr e -> S_expr (map_expr f ctr e)
    | S_if (c, a, b) ->
      let c = map_expr f ctr c in
      let a = List.map (stmt_map_expr f ctr) a in
      S_if (c, a, List.map (stmt_map_expr f ctr) b)
    | S_for (h, b) ->
      let h = map_header_exprs f ctr h in
      S_for (h, List.map (stmt_map_expr f ctr) b)
    | S_omp_for (h, b) ->
      let h = map_header_exprs f ctr h in
      S_omp_for (h, List.map (stmt_map_expr f ctr) b)
    | S_while (c, b) ->
      let c = map_expr f ctr c in
      S_while (c, List.map (stmt_map_expr f ctr) b)
    | S_do_while (b, c) ->
      let b = List.map (stmt_map_expr f ctr) b in
      S_do_while (b, map_expr f ctr c)
    | S_return e -> S_return (Option.map (map_expr f ctr) e)
    | S_launch (name, (g1, g2, g3), (b1, b2, b3), args) ->
      let m = map_expr f ctr in
      let g = (m g1, Option.map m g2, Option.map m g3) in
      let bl = (m b1, Option.map m b2, Option.map m b3) in
      S_launch (name, g, bl, List.map m args)
    | S_sync -> S_sync
    | S_block b -> S_block (List.map (stmt_map_expr f ctr) b)
  in
  { st with s = k }

let map_program_exprs f (p : program) : program =
  let ctr = ref 0 in
  List.map
    (fun fn -> { fn with fn_body = List.map (stmt_map_expr f ctr) fn.fn_body })
    p

let count_exprs (p : program) : int =
  let ctr = ref 0 in
  ignore
    (List.map
       (fun fn -> List.map (stmt_map_expr (fun _ _ -> None) ctr) fn.fn_body)
       p);
  !ctr

(* Simpler replacements for one expression, in decreasing preference. *)
let expr_variants (e : expr) : expr list =
  match e with
  | E_int n when n > 1 ->
    List.sort_uniq compare [ E_int 1; E_int (n / 2); E_int (n - 1) ]
  | E_int 1 -> [ E_int 0 ]
  | E_float (f, d) when f <> 0.0 && f <> 1.0 ->
    [ E_float (1.0, d); E_float (0.0, d) ]
  | E_float (1.0, d) -> [ E_float (0.0, d) ]
  | E_bin (_, a, b) -> [ a; b ]
  | E_un (_, a) | E_cast (_, a) -> [ a ]
  | E_cond (_, a, b) -> [ a; b ]
  | _ -> []

(* IR size of the witness: ops inside the kernel's block-level parallel
   region(s) as the barrier-lowering passes see them — i.e. after the
   pipeline's cleanup prefix (canonicalize/cse/mem2reg), which promotes
   the frontend's mutable-local allocas.  The host-side launch
   scaffolding (function, grid loop, bound constants) is fixed overhead
   of every witness and is excluded, so the number measures how small
   the reducer got the kernel itself. *)
let ir_ops (src : string) : int =
  match Cudafe.Codegen.compile src with
  | exception _ -> max_int
  | m ->
    (match
       Core.Canonicalize.run m;
       Core.Cse.run m;
       ignore (Core.Mem2reg.run m);
       Core.Canonicalize.run m;
       Core.Cse.run m
     with
     | () -> ()
     | exception _ -> ());
    let n = ref 0 in
    Ir.Op.iter
      (fun op ->
        if op.Ir.Op.kind = Ir.Op.Parallel Ir.Op.Block then begin
          (* subtree minus the parallel wrapper itself *)
          decr n;
          Ir.Op.iter (fun _ -> incr n) op
        end)
      m;
    !n

(* Oracle invocations one reduction may spend. *)
let max_checks = 1500

let run ?timeout_ms (src : string) (failure : Oracle.failure) : string =
  let checks = ref 0 in
  let still_fails src' =
    !checks < max_checks
    && begin
      incr checks;
      match Oracle.run ?timeout_ms src' with
      | Oracle.Failed f' -> Oracle.same_failure failure f'
      | Oracle.Passed -> false
    end
  in
  match Cudafe.Parser.parse_program src with
  | exception _ -> src
  | prog ->
    let cur = ref prog in
    let cur_src = ref (Pp.program prog) in
    (* Reducing only makes sense if the reprinted program still fails
       the same way (it should — printing is semantics-preserving). *)
    if not (still_fails !cur_src) then src
    else begin
      let adopt cand =
        let s = Pp.program cand in
        if String.equal s !cur_src then false
        else if still_fails s then begin
          cur := cand;
          cur_src := s;
          true
        end
        else false
      in
      let stmt_pass () =
        let changed = ref false in
        let i = ref 0 in
        while !i < count_stmts !cur && !checks < max_checks do
          let target = !i in
          (* collect this statement's variants from the current tree *)
          let variants = ref [ [] (* delete *) ] in
          ignore
            (map_program_stmts
               (fun j st ->
                 if j = target then variants := !variants @ stmt_variants st;
                 None)
               !cur);
          let adopted =
            List.exists
              (fun repl ->
                adopt
                  (map_program_stmts
                     (fun j _ -> if j = target then Some repl else None)
                     !cur))
              !variants
          in
          if adopted then changed := true else incr i
          (* on success the tree shifted under [target]; rescan the same
             index, which now names the next statement *)
        done;
        !changed
      in
      let expr_pass () =
        let changed = ref false in
        let i = ref 0 in
        while !i < count_exprs !cur && !checks < max_checks do
          let target = !i in
          let variants = ref [] in
          ignore
            (map_program_exprs
               (fun j e ->
                 if j = target then variants := expr_variants e;
                 None)
               !cur);
          let adopted =
            List.exists
              (fun repl ->
                adopt
                  (map_program_exprs
                     (fun j _ -> if j = target then Some repl else None)
                     !cur))
              !variants
          in
          if adopted then changed := true;
          (* expression edits keep the index space mostly stable; moving
             on either way converges because later fixpoint rounds
             revisit everything *)
          incr i
        done;
        !changed
      in
      let progress = ref true in
      while !progress && !checks < max_checks do
        let a = stmt_pass () in
        let b = expr_pass () in
        progress := a || b
      done;
      !cur_src
    end
