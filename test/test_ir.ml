(* Unit tests for the IR core: builder, printer, verifier, clone. *)

open Ir

let scalar_f32 = Types.Scalar Types.F32

let build_simple_func () =
  Builder.func "axpy"
    [ ("a", scalar_f32)
    ; ("x", Types.memref Types.F32 [ None ])
    ; ("y", Types.memref Types.F32 [ None ])
    ; ("n", Types.Scalar Types.Index)
    ]
    (fun args ->
      let seq = Builder.Seq.create () in
      let ev op = Builder.Seq.emitv seq op in
      let e op = ignore (Builder.Seq.emit seq op) in
      let c0 = ev (Builder.const_int 0) in
      let c1 = ev (Builder.const_int 1) in
      let loop =
        Builder.for_ ~lo:c0 ~hi:args.(3) ~step:c1 (fun iv ->
            let s = Builder.Seq.create () in
            let ev' op = Builder.Seq.emitv s op in
            let xi = ev' (Builder.load args.(1) [ iv ]) in
            let yi = ev' (Builder.load args.(2) [ iv ]) in
            let ax = ev' (Builder.binop Op.Mul args.(0) xi) in
            let r = ev' (Builder.binop Op.Add ax yi) in
            ignore (Builder.Seq.emit s (Builder.store r args.(2) [ iv ]));
            Builder.Seq.to_list s)
      in
      e loop;
      e (Builder.return_ []);
      Builder.Seq.to_list seq)

let test_verify_ok () =
  let m = Builder.module_ [ build_simple_func () ] in
  match Verifier.verify_result m with
  | Ok () -> ()
  | Error e -> Alcotest.failf "verifier rejected valid IR: %s" e

let test_verify_rejects_use_before_def () =
  let dangling = Value.fresh (Types.Scalar Types.Index) in
  let f =
    Builder.func "bad" [] (fun _ ->
        let op = Builder.binop Op.Add dangling dangling in
        [ op; Builder.return_ [] ])
  in
  let m = Builder.module_ [ f ] in
  match Verifier.verify_result m with
  | Ok () -> Alcotest.fail "verifier accepted use-before-def"
  | Error _ -> ()

let test_verify_rejects_barrier_outside_parallel () =
  let f = Builder.func "bad" [] (fun _ -> [ Builder.barrier (); Builder.return_ [] ]) in
  let m = Builder.module_ [ f ] in
  match Verifier.verify_result m with
  | Ok () -> Alcotest.fail "verifier accepted stray barrier"
  | Error _ -> ()

let test_printer_mentions_structure () =
  let m = Builder.module_ [ build_simple_func () ] in
  let s = Printer.op_to_string m in
  List.iter
    (fun frag ->
      let found =
        let fl = String.length frag and sl = String.length s in
        let rec go i = i + fl <= sl && (String.sub s i fl = frag || go (i + 1)) in
        go 0
      in
      if not found then Alcotest.failf "printed IR missing %S:\n%s" frag s)
    [ "func.func @axpy"; "scf.for"; "memref.load"; "memref.store"
    ; "arith.mulf"; "func.return" ]

let test_clone_remaps_values () =
  let f = build_simple_func () in
  let f' = Clone.clone_op_fresh f in
  (* Collect all value ids of both; they must be disjoint. *)
  let ids op =
    let acc = ref [] in
    Op.iter
      (fun o ->
        Array.iter (fun (v : Value.t) -> acc := v.id :: !acc) o.results;
        Array.iter
          (fun (r : Op.region) ->
            Array.iter (fun (v : Value.t) -> acc := v.id :: !acc) r.rargs)
          o.regions)
      op;
    !acc
  in
  let a = ids f and b = ids f' in
  List.iter
    (fun id ->
      if List.mem id a then Alcotest.failf "clone shares value id %d" id)
    b;
  (* And the clone must still verify. *)
  match Verifier.verify_result (Builder.module_ [ f' ]) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "clone does not verify: %s" e

let test_free_values () =
  let x = Value.fresh (Types.Scalar Types.Index) in
  let op1 = Builder.const_int 4 in
  let op2 = Builder.binop Op.Add (Op.result op1) x in
  let free = Rewrite.free_values [ op1; op2 ] in
  Alcotest.(check bool) "x is free" true (Value.Set.mem x free);
  Alcotest.(check bool)
    "op1 result is not free" false
    (Value.Set.mem (Op.result op1) free)

(* --- verifier diagnostics: exact text of each failure kind --- *)

let idx = Types.Scalar Types.Index

let expect_error m want =
  match Verifier.verify_result m with
  | Ok () -> Alcotest.failf "verifier accepted invalid IR, wanted %S" want
  | Error got -> Alcotest.(check string) "verifier message" want got

(* The message for an out-of-scope operand embeds the offending op's
   printed text. *)
let scope_error (op : Op.op) (v : Value.t) =
  Printf.sprintf "%s: use of %s before definition / out of scope"
    (String.trim (Printer.op_to_string op))
    (Value.to_string v)

let in_func body =
  Builder.module_
    [ Builder.func "f" [] (fun _ -> body @ [ Builder.return_ [] ]) ]

let c0 () = Builder.const_int 0
let c1 () = Builder.const_int 1

let test_verify_use_before_def_text () =
  let c = c1 () in
  let add = Builder.binop Op.Add (Op.result c) (Op.result c) in
  expect_error (in_func [ add; c ]) (scope_error add (Op.result c))

(* A one-trip loop whose body is [body iv]. *)
let loop body =
  let lo = c0 () and one = c1 () in
  [ lo
  ; one
  ; Builder.for_ ~lo:(Op.result lo) ~hi:(Op.result one) ~step:(Op.result one)
      body
  ]

let test_verify_loop_value_after_loop () =
  let inner = Builder.const_int 7 in
  let leak = Builder.binop Op.Add (Op.result inner) (Op.result inner) in
  expect_error
    (in_func (loop (fun _ -> [ inner ]) @ [ leak ]))
    (scope_error leak (Op.result inner))

let test_verify_region_arg_outside () =
  let iv = ref None in
  let ops =
    loop (fun i ->
        iv := Some i;
        [])
  in
  let i = Option.get !iv in
  let leak = Builder.binop Op.Add i i in
  expect_error (in_func (ops @ [ leak ])) (scope_error leak i)

(* An [if] on a constant condition with the given then/else bodies. *)
let if_ then_ else_ =
  let a = c0 () and b = c1 () in
  let cond = Builder.cmp Op.Lt (Op.result a) (Op.result b) in
  in_func [ a; b; cond; Builder.if_ (Op.result cond) then_ ~else_ ]

let test_verify_then_value_in_else () =
  let t = Builder.const_int 3 in
  let bad = Builder.binop Op.Add (Op.result t) (Op.result t) in
  expect_error (if_ [ t ] [ bad ]) (scope_error bad (Op.result t))

let test_verify_defined_twice_siblings () =
  let v = Value.fresh ~name:"dup" idx in
  let def () =
    Op.mk (Op.Constant (Op.Cint (1, Types.Index))) ~results:[| v |]
  in
  expect_error
    (if_ [ def () ] [ def () ])
    (Printf.sprintf "value %s defined twice" (Value.to_string v))

let test_verify_barrier_placement () =
  let msg = "barrier outside of a block-level parallel loop" in
  expect_error (in_func [ Builder.barrier () ]) msg;
  let par kind body =
    let lo = c0 () and one = c1 () in
    in_func
      [ lo
      ; one
      ; Builder.parallel kind ~lbs:[ Op.result lo ] ~ubs:[ Op.result one ]
          ~steps:[ Op.result one ] (fun _ -> body)
      ]
  in
  expect_error (par Op.Grid [ Builder.barrier () ]) msg;
  match Verifier.verify_result (par Op.Block [ Builder.barrier () ]) with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "barrier in a block-level parallel rejected: %s" e

let test_verify_shape_text () =
  let c = c1 () in
  let bad =
    Op.mk (Op.Binop Op.Add) ~operands:[| Op.result c |]
      ~results:[| Value.fresh idx |]
  in
  expect_error (in_func [ c; bad ]) "binop: expected 2 operands, got 1"

(* --- value-carrying ops: one rejection per rule --- *)

let f64 = Types.Scalar Types.F64

(* [scf.if %true -> types] with the given then/else bodies. *)
let if_results types then_ else_ =
  let t = Builder.const_int ~dtype:Types.I1 1 in
  let op = Builder.if_ ~results:types (Op.result t) then_ ~else_ in
  (t, op)

let expect_prefix m want =
  match Verifier.verify_result m with
  | Ok () -> Alcotest.failf "verifier accepted invalid IR, wanted %S" want
  | Error got ->
    if not (String.length got >= String.length want
            && String.sub got 0 (String.length want) = want)
    then Alcotest.failf "verifier said %S, wanted it to start with %S" got want

let test_verify_carried_values () =
  (* well-formed: an if result and a for iter_arg *)
  let one = Builder.const_float ~dtype:Types.F64 1.0 in
  let x = Op.result one in
  let t, ok_if = if_results [ f64 ] [ Builder.yield_ [ x ] ] [ Builder.yield_ [ x ] ] in
  let lo = c0 () and hi = c1 () in
  let ok_for =
    Builder.for_iter ~lo:(Op.result lo) ~hi:(Op.result hi) ~step:(Op.result hi)
      ~inits:[ x ] (fun _ args -> [ Builder.yield_ [ args.(0) ] ])
  in
  (match Verifier.verify_result (in_func [ one; t; ok_if; lo; hi; ok_for ]) with
   | Ok () -> ()
   | Error e -> Alcotest.failf "well-formed carried values rejected: %s" e);
  (* yield arity and types *)
  let t, bad = if_results [ f64 ] [ Builder.yield_ [ x; x ] ] [ Builder.yield_ [ x ] ] in
  expect_error (in_func [ one; t; bad ]) "scf.yield: 2 values for 1 slots";
  let i = c1 () in
  let t, bad =
    if_results [ f64 ] [ Builder.yield_ [ Op.result i ] ] [ Builder.yield_ [ x ] ]
  in
  expect_error (in_func [ one; i; t; bad ])
    "scf.yield: type mismatch at 0 (index vs f64)";
  (* a carrying region must end in a yield; a yield must end its region *)
  let t, bad = if_results [ f64 ] [] [ Builder.yield_ [ x ] ] in
  expect_error (in_func [ one; t; bad ])
    "value-carrying region must end in scf.yield";
  let t, bad =
    if_results [ f64 ] [ Builder.yield_ [ x ]; Builder.const_int 3 ] [ Builder.yield_ [ x ] ]
  in
  expect_error (in_func [ one; t; bad ])
    "scf.yield must be the last op of its region";
  expect_error
    (Builder.module_ [ Builder.func "f" [] (fun _ -> [ Builder.yield_ [] ]) ])
    "scf.yield outside an scf.if/scf.for region";
  (* memref-typed results *)
  let buf = Builder.alloca Types.F64 [] in
  let b = Op.result buf in
  let t, bad =
    if_results [ b.Value.typ ] [ Builder.yield_ [ b ] ] [ Builder.yield_ [ b ] ]
  in
  expect_error (in_func [ buf; t; bad ])
    (Printf.sprintf "if result: memref-typed value %s cannot be carried"
       (Value.to_string (Op.result bad)));
  (* no barrier, parallel loop, omp op or while inside a carrying op *)
  let nested what inner =
    let lo = c0 () and hi = c1 () in
    let body =
      Builder.for_iter ~lo:(Op.result lo) ~hi:(Op.result hi)
        ~step:(Op.result hi) ~inits:[ x ] (fun _ args ->
          inner () @ [ Builder.yield_ [ args.(0) ] ])
    in
    let blo = c0 () and bhi = c1 () in
    expect_prefix
      (in_func
         [ one; blo; bhi
         ; Builder.parallel Op.Block ~lbs:[ Op.result blo ]
             ~ubs:[ Op.result bhi ] ~steps:[ Op.result bhi ] (fun _ ->
               [ lo; hi; body ])
         ])
      (what ^ " nested inside an scf.if with results or an scf.for with \
               iter_args")
  in
  nested "polygeist.barrier" (fun () -> [ Builder.barrier () ]);
  nested "scf.while" (fun () ->
      let c = Builder.const_int ~dtype:Types.I1 0 in
      [ Builder.while_ ~cond_body:[ c; Builder.condition (Op.result c) ] ~body:[] ]);
  nested "scf.parallel" (fun () ->
      let lo = c0 () and hi = c1 () in
      [ lo; hi
      ; Builder.parallel Op.Flat ~lbs:[ Op.result lo ] ~ubs:[ Op.result hi ]
          ~steps:[ Op.result hi ] (fun _ -> [])
      ]);
  nested "omp op" (fun () -> [ Builder.omp_parallel [] ])

(* --- linearity guard: the harness's own checks cost O(IR) --- *)

(* A func of [n] binops spread evenly over [depth] nested loops. *)
let synthetic ~n ~depth =
  Builder.module_
    [ Builder.func "synth" [ ("n", idx) ] (fun args ->
          let per = n / depth in
          let rec level d (iv : Value.t) =
            let s = Builder.Seq.create () in
            let acc = ref iv in
            for _ = 1 to per do
              acc := Builder.Seq.emitv s (Builder.binop Op.Add !acc iv)
            done;
            if d < depth then
              ignore
                (Builder.Seq.emit s
                   (Builder.for_ ~lo:iv ~hi:args.(0) ~step:iv (level (d + 1))));
            Builder.Seq.to_list s
          in
          level 1 args.(0) @ [ Builder.return_ [] ])
    ]

let allocated_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_harness_linear () =
  let n = 1024 in
  let flat = synthetic ~n ~depth:1 in
  let deep = synthetic ~n:(4 * n) ~depth:32 in
  List.iter
    (fun (what, f) ->
      let small = allocated_words (fun () -> f flat) in
      let big = allocated_words (fun () -> f deep) in
      if big > 6.0 *. small then
        Alcotest.failf
          "%s allocates %.0f words on 4N ops nested 32 deep vs %.0f on N flat \
           ops (%.1fx, bound 6x)"
          what big small (big /. small))
    [ ("Verifier.verify", Verifier.verify)
    ; ("Clone.snapshot", fun m -> ignore (Clone.snapshot m))
    ]

let tests =
  [ Alcotest.test_case "verify ok" `Quick test_verify_ok
  ; Alcotest.test_case "verify rejects use-before-def" `Quick
      test_verify_rejects_use_before_def
  ; Alcotest.test_case "verify rejects stray barrier" `Quick
      test_verify_rejects_barrier_outside_parallel
  ; Alcotest.test_case "printer structure" `Quick test_printer_mentions_structure
  ; Alcotest.test_case "clone remaps values" `Quick test_clone_remaps_values
  ; Alcotest.test_case "free values" `Quick test_free_values
  ; Alcotest.test_case "verify: use before def names the op" `Quick
      test_verify_use_before_def_text
  ; Alcotest.test_case "verify: loop value used after the loop" `Quick
      test_verify_loop_value_after_loop
  ; Alcotest.test_case "verify: then value used in else" `Quick
      test_verify_then_value_in_else
  ; Alcotest.test_case "verify: region arg used outside" `Quick
      test_verify_region_arg_outside
  ; Alcotest.test_case "verify: defined twice in sibling regions" `Quick
      test_verify_defined_twice_siblings
  ; Alcotest.test_case "verify: barrier placement" `Quick
      test_verify_barrier_placement
  ; Alcotest.test_case "verify: shape message" `Quick test_verify_shape_text
  ; Alcotest.test_case "verify: carried values, one rejection per rule" `Quick
      test_verify_carried_values
  ; Alcotest.test_case "verify and snapshot allocate O(IR)" `Quick
      test_harness_linear
  ]
