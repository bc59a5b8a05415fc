(* Transformation tests: each optimization is checked structurally (did it
   do the thing) and differentially (results after the pass equal results
   under the original GPU semantics). *)

open Ir

let compile_ok src =
  let m = Cudafe.Codegen.compile src in
  (match Verifier.verify_result m with
   | Ok () -> ()
   | Error e -> Alcotest.failf "IR does not verify: %s" e);
  m

let verify_ok ?(what = "IR") m =
  match Verifier.verify_result m with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "%s does not verify: %s\n%s" what e (Printer.op_to_string m)

let count p m =
  let n = ref 0 in
  Op.iter (fun o -> if p o then incr n) m;
  !n

let count_barriers = count (fun o -> o.Op.kind = Op.Barrier)
let count_calls name =
  count (fun o -> match o.Op.kind with Op.Call n -> n = name | _ -> false)

(* Run [fname] on float buffers; returns final contents of each buffer. *)
let run_buffers m fname (bufs : float array array) (scalars : int list) :
  float array array =
  let copies = Array.map Array.copy bufs in
  let args =
    Array.to_list (Array.map (fun a -> Interp.Mem.Buf (Interp.Mem.of_float_array a)) copies)
    @ List.map (fun n -> Interp.Mem.Int n) scalars
  in
  let bufs_rt =
    List.filteri (fun i _ -> i < Array.length copies) args
    |> List.map (function Interp.Mem.Buf b -> b | _ -> assert false)
  in
  let _ = Interp.Eval.run m fname args in
  Array.of_list (List.map Interp.Mem.float_contents bufs_rt)

let check_same_results ?(eps = 1e-4) src fname bufs scalars transform =
  let m1 = compile_ok src in
  let expected = run_buffers m1 fname bufs scalars in
  let m2 = compile_ok src in
  transform m2;
  verify_ok ~what:"transformed IR" m2;
  let got = run_buffers m2 fname bufs scalars in
  Array.iteri
    (fun bi exp ->
      Array.iteri
        (fun i e ->
          if Float.abs (e -. got.(bi).(i)) > eps then
            Alcotest.failf "buffer %d index %d: expected %g, got %g" bi i e
              got.(bi).(i))
        exp)
    expected

(* --- canonicalize / cse --- *)

let test_constant_folding () =
  let src = "int f() { return (2 + 3) * 4 - 6 / 2; }" in
  let m = compile_ok src in
  Core.Canonicalize.run m;
  verify_ok m;
  (* everything folds to one constant + return *)
  let consts = count (fun o -> match o.Op.kind with Op.Constant _ -> true | _ -> false) m in
  let binops = count (fun o -> match o.Op.kind with Op.Binop _ -> true | _ -> false) m in
  Alcotest.(check int) "no binops left" 0 binops;
  Alcotest.(check bool) "some constant" true (consts >= 1);
  let r, _ = Interp.Eval.run m "f" [] in
  Alcotest.(check int) "value" 17 (Interp.Mem.as_int (Option.get r))

let test_if_folding () =
  let src = "int f(int x) { if (1 < 2) { x = x + 1; } else { x = x - 1; } return x; }" in
  let m = compile_ok src in
  Core.Canonicalize.run m;
  verify_ok m;
  Alcotest.(check int) "no ifs left" 0
    (count (fun o -> o.Op.kind = Op.If) m);
  let r, _ = Interp.Eval.run m "f" [ Interp.Mem.Int 10 ] in
  Alcotest.(check int) "value" 11 (Interp.Mem.as_int (Option.get r))

(* A zero-trip loop goes only when its step is a positive literal: a
   step of 0 must still fail the run, on the interpreter before and
   after lowering and on the engine. *)
let test_zero_step_loop_kept () =
  let src =
    "void run(int* out){ out[0]=1; for (int i = 5; i < 0; i += 0) { out[0] = 2; } }"
  in
  let error run =
    let out = Interp.Mem.alloc_buffer Types.Index [| 1 |] in
    match run [ Interp.Mem.Buf out ] with
    | () -> "no error"
    | exception Interp.Mem.Runtime_error e -> e
  in
  let want = "scf.for: non-positive step 0" in
  let front = compile_ok src in
  Alcotest.(check string) "frontend IR, interpreter" want
    (error (fun a -> ignore (Interp.Eval.run front "run" a)));
  let m = compile_ok src in
  (match
     Core.Passmgr.lower
       (Core.Passmgr.Optimized Core.Omp_lower.default_options)
       m
   with
   | Ok _ -> ()
   | Error (_, e) -> Alcotest.failf "lowering failed: %s" e);
  Alcotest.(check string) "lowered, interpreter" want
    (error (fun a -> ignore (Interp.Eval.run m "run" a)));
  Alcotest.(check string) "lowered, engine" want
    (error (fun a -> ignore (Runtime.Exec.run_module ~domains:1 m "run" a)))

(* Empty, side-effect-free loops go bottom-up, so a whole nest
   collapses; one whose step is not a positive literal stays. *)
let test_empty_nest_collapses () =
  let src =
    {|
void run(int* out, int s) {
  for (int i = 0; i < 4; i++) {
    for (int j = 0; j < 4; j++) {
      for (int k = 0; k < 4; k++) { int t = i + j + k; }
    }
  }
  for (int q = 0; q < 4; q += s) { int u = q; }
  out[0] = 1;
}
|}
  in
  let m = compile_ok src in
  ignore (Core.Mem2reg.run m);
  Core.Canonicalize.run m;
  verify_ok m;
  Alcotest.(check int) "only the loop with a register step is left" 1
    (count (fun o -> o.Op.kind = Op.For) m)

(* --- lowering keeps every scalar op's bits and traps --- *)

(* Run [entry] of the frontend IR on the interpreter, then of the IR
   after [Passmgr.lower] with [recipe] on the interpreter and on the
   engine at each of [domains]: each run gives the output buffer's bits
   or the error text, and all must agree.  [shape] checks the lowered
   IR. *)
let lowering_agrees
    ?(recipe = Core.Passmgr.Optimized Core.Omp_lower.default_options)
    ?(domains = [ 1; 4 ]) ?(shape = ignore) src entry
    (mk_args : unit -> Interp.Mem.buffer * Interp.Mem.rv list) =
  let outcome run =
    let out, args = mk_args () in
    match run args with
    | () ->
      Ok
        (match out.Interp.Mem.data with
         | Interp.Mem.Fdata a -> Array.map Int64.bits_of_float a
         | Interp.Mem.Idata a -> Array.map Int64.of_int a)
    | exception Interp.Mem.Runtime_error e -> Error e
  in
  let front = compile_ok src in
  let want = outcome (fun a -> ignore (Interp.Eval.run front entry a)) in
  let m = compile_ok src in
  (match Core.Passmgr.lower recipe m with
   | Ok _ -> ()
   | Error (_, e) -> Alcotest.failf "lowering failed: %s" e);
  shape m;
  let same = Alcotest.(result (array int64) string) in
  Alcotest.check same "lowered, interpreter" want
    (outcome (fun a -> ignore (Interp.Eval.run m entry a)));
  List.iter
    (fun domains ->
      Alcotest.check same
        (Printf.sprintf "lowered, engine at %d domain(s)" domains)
        want
        (outcome (fun a ->
             ignore (Runtime.Exec.run_module ~domains m entry a))))
    domains

let float_out n () =
  let out = Interp.Mem.of_float_array (Array.make n 0.0) in
  (out, [ Interp.Mem.Buf out ])

(* f32 literals are rounded, the arithmetic on them is not: a fold must
   not round its result to f32. *)
let test_f32_folds_keep_bits () =
  lowering_agrees
    {|
void run(float* out) {
  float a = 0.1f;
  float b = 0.2f;
  out[0] = a + b;
  out[1] = sqrtf(2.0f);
  out[2] = 0.1f * 3.0f;
}
|}
    "run" (float_out 3)

(* [-0.0 + 0.0] is [+0.0], and so is [-0.0 - (-0.0)]. *)
let test_signed_zero_identities () =
  lowering_agrees
    {|
void run(float* out) {
  out[3] = -0.0f;
  out[4] = out[3] + 0.0f;
  out[5] = 0.0f + out[3];
  out[6] = out[3] - (-0.0f);
  out[7] = out[3] - 0.0f;
}
|}
    "run" (float_out 8)

(* An unused integer division by zero still fails the run. *)
let test_dce_keeps_trap () =
  lowering_agrees
    "void run(int* out, int n) { int z = out[0] / n; out[1] = 5; }" "run"
    (fun () ->
      let out = Interp.Mem.of_int_array [| 3; 0 |] in
      (out, [ Interp.Mem.Buf out; Interp.Mem.Int 0 ]))

(* A division in a loop that runs zero times never executes: hoisting
   it out of a serial loop or a thread loop would fail the run. *)
let test_licm_adds_no_trap () =
  let args () =
    let out = Interp.Mem.of_int_array [| 1; 2 |] in
    (out, [ Interp.Mem.Buf out; Interp.Mem.Int 0; Interp.Mem.Int 0 ])
  in
  lowering_agrees
    {|
void run(int* out, int n, int d) {
  for (int i = 0; i < n; i++) { out[i] = 7 / d; }
}
|}
    "run" args;
  lowering_agrees
    {|
__global__ void k(int* out, int d) { out[threadIdx.x] = 7 / d; }
void run(int* out, int n, int d) { k<<<1, n>>>(out, d); }
|}
    "run" args

(* A load hoisted out of a thread loop that may run zero times runs
   under a guard: with no threads, [in[n]] is never read. *)
let test_licm_guards_empty_loop () =
  let src =
    {|
__global__ void k(float* out, float* in, int n) { out[threadIdx.x] = in[n]; }
void run(float* out, float* in, int n) { k<<<1, n>>>(out, in, n); }
|}
  in
  List.iter
    (fun n ->
      let args () =
        let out = Interp.Mem.of_float_array (Array.make n 0.0) in
        let inp =
          Interp.Mem.of_float_array
            (Array.init (2 * n) (fun i -> float_of_int (i + 1)))
        in
        (out, [ Interp.Mem.Buf out; Interp.Mem.Buf inp; Interp.Mem.Int n ])
      in
      List.iter
        (fun (_, recipe) -> lowering_agrees ~recipe src "run" args)
        Core.Passmgr.recipes)
    [ 0; 8 ]

(* Collapsing a grid loop with its inner loop must not move a division
   into the inner loop's body: with [n = 0] the inner range is empty,
   and the collapsed loop would never run the division by [d = 0]. *)
let test_collapse_keeps_trap () =
  let src =
    {|
void run(float* out, int n, int d) {
  #pragma omp parallel for
  for (int i = 0; i < 2; i++) {
    int q = n / d;
    #pragma omp parallel for
    for (int j = 0; j < n; j++) { out[i * 4 + j] = q; }
  }
}
|}
  in
  List.iter
    (fun (n, d) ->
      let args () =
        let out = Interp.Mem.of_float_array (Array.make 8 0.0) in
        (out, [ Interp.Mem.Buf out; Interp.Mem.Int n; Interp.Mem.Int d ])
      in
      List.iter
        (fun (_, recipe) -> lowering_agrees ~recipe src "run" args)
        Core.Passmgr.recipes)
    [ (0, 0); (4, 2) ]

(* Range facts: the guards the launch bounds decide fold away and the
   one-trip loop (carrying [a]) is inlined, but the guard one off the
   extent stays, and so do the division and remainder of [t - 3], which
   may be negative (a shift or a mask would round it the other way). *)
let test_range_folds () =
  let kind p m = count (fun o -> p o.Op.kind) m in
  lowering_agrees
    ~shape:(fun m ->
      Alcotest.(check int) "only the off-by-one guard is left" 1
        (kind (function Op.Cmp _ -> true | _ -> false) m);
      Alcotest.(check int) "no loop is left" 0 (kind (( = ) Op.For) m);
      Alcotest.(check int) "divi and remi stay" 2
        (kind (function Op.Binop (Op.Div | Op.Rem) -> true | _ -> false) m))
    {|
__global__ void k(float* out) {
  int t = threadIdx.x;
  float a = 1.0f;
  if (t < 8 && t <= 8 - 1 && t + 1 > 0) { a = a + 2.0f; }
  if (t < 8 - 1) { a = a + 0.5f; }
  out[t] = (t - 3) / 4 + 100 * ((t - 3) % 4);
  for (int j = 2; j < 3; j++) { a = a * 0.5f + j; }
  out[8 + t] = a;
}
void run(float* out) { k<<<1, 8>>>(out); }
|}
    "run" (float_out 16)

let test_cse_unifies () =
  let src =
    {|
float f(float* a, int i) {
  float x = a[i] * 2.0f;
  float y = a[i] * 2.0f;
  return x + y;
}
|}
  in
  let m = compile_ok src in
  Core.Canonicalize.run m;
  ignore (Core.Mem2reg.run m);
  Core.Canonicalize.run m;
  Core.Cse.run m;
  Core.Canonicalize.run m;
  verify_ok m;
  let loads = count (fun o -> o.Op.kind = Op.Load) m in
  Alcotest.(check int) "single load of a[i]" 1 loads;
  let b = Interp.Mem.of_float_array [| 1.0; 3.0 |] in
  let r, _ = Interp.Eval.run m "f" [ Interp.Mem.Buf b; Interp.Mem.Int 1 ] in
  Alcotest.(check (float 1e-6)) "value" 12.0 (Interp.Mem.as_float (Option.get r))

(* --- mem2reg --- *)

let test_mem2reg_slots_disappear () =
  let src =
    {|
int f(int x) {
  int a = x + 1;
  int b = a * 2;
  return b - x;
}
|}
  in
  let m = compile_ok src in
  ignore (Core.Mem2reg.run m);
  Core.Canonicalize.run m;
  verify_ok m;
  Alcotest.(check int) "no allocas left" 0
    (count (fun o -> o.Op.kind = Op.Alloca) m);
  let r, _ = Interp.Eval.run m "f" [ Interp.Mem.Int 5 ] in
  Alcotest.(check int) "value" 7 (Interp.Mem.as_int (Option.get r))

(* Locals assigned under a condition and carried across iterations
   become scf.if results and scf.for iter_args; [&&] and [?:] with a
   right side that may trap keep it lazy. *)
let test_mem2reg_carried () =
  let src =
    {|
int f(int n, int d) {
  int best = 0;
  int acc = 0;
  for (int i = 0; i < n; i++) {
    if (i % 3 == 0) best = i;
    acc = acc + (d != 0 && 12 / d > i ? 1 : 2);
  }
  int pick = n > 4 ? best : acc;
  return pick * 100 + acc;
}
|}
  in
  let run m d =
    let r, _ = Interp.Eval.run m "f" [ Interp.Mem.Int 7; Interp.Mem.Int d ] in
    Interp.Mem.as_int (Option.get r)
  in
  let m = compile_ok src in
  let r = Core.Mem2reg.run m in
  Core.Canonicalize.run m;
  verify_ok m;
  Alcotest.(check int) "no allocas left" 0
    (count (fun o -> o.Op.kind = Op.Alloca) m);
  Alcotest.(check bool)
    (Printf.sprintf "values carried (%d)" r.Core.Mem2reg.carried_values)
    true
    (r.Core.Mem2reg.carried_values >= 2);
  Alcotest.(check int) "d = 0: the division never runs" 614 (run m 0);
  Alcotest.(check int) "d = 4" 611 (run m 4)

(* An accumulator whose loop holds a barrier stays in memory across it,
   and is an iter_arg in the barrier-free loop inside. *)
let test_mem2reg_barrier_boundary () =
  let src =
    {|
__global__ void k(float* out, float* in) {
  __shared__ float s[8];
  int t = threadIdx.x;
  float acc = 0.0f;
  for (int r = 0; r < 3; r++) {
    s[t] = in[r * 8 + t];
    __syncthreads();
    for (int j = 0; j < 8; j++) { acc = acc + s[j] * 0.5f; }
    __syncthreads();
  }
  out[t] = acc;
}
void launch(float* out, float* in) { k<<<1, 8>>>(out, in); }
|}
  in
  let m = compile_ok src in
  ignore (Core.Mem2reg.run m);
  Core.Canonicalize.run m;
  verify_ok m;
  let iter_loops =
    count (fun o -> o.Op.kind = Op.For && Op.carries_values o) m
  in
  Alcotest.(check int) "the inner loop carries acc" 1 iter_loops;
  Alcotest.(check int) "acc's slot stays across the barriers" 1
    (count
       (fun o ->
         o.Op.kind = Op.Alloca
         && (Op.result o).Value.typ = Types.memref ~space:Types.Local Types.F32 [])
       m);
  check_same_results src "launch"
    [| Array.make 8 0.0; Array.init 24 (fun i -> float_of_int (i mod 5)) |]
    [] Core.Cpuify.pipeline

(* Fig. 9 pattern: store/load of shared[ty][tx] across a barrier forwards
   because the address is injective in the thread ids. *)
let test_forwarding_across_barrier () =
  let src =
    {|
__global__ void k(float* out, float* in) {
  __shared__ float w[4][8];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  w[ty][tx] = in[ty * 8 + tx];
  __syncthreads();
  w[ty][tx] = w[ty][tx] * 2.0f;
  __syncthreads();
  out[ty * 8 + tx] = w[ty][tx];
}
void launch(float* out, float* in) { k<<<1, dim3(8, 4)>>>(out, in); }
|}
  in
  let m = compile_ok src in
  Core.Canonicalize.run m;
  let before = count (fun o -> o.Op.kind = Op.Load) m in
  let r = Core.Mem2reg.run m in
  Core.Canonicalize.run m;
  verify_ok m;
  Alcotest.(check bool)
    (Printf.sprintf "forwarded some loads (%d -> report %d)" before
       r.Core.Mem2reg.forwarded_loads)
    true
    (r.Core.Mem2reg.forwarded_loads >= 1);
  (* and the result still matches *)
  check_same_results src "launch"
    [| Array.make 32 0.0; Array.init 32 (fun i -> float_of_int i) |]
    []
    (fun m ->
      ignore (Core.Mem2reg.run m);
      Core.Canonicalize.run m)

(* --- barrier elimination: the Fig. 9 backprop shape --- *)

let backprop_like_src =
  {|
__global__ void layerforward(float* input, float* hidden, float* output, float* weights_in) {
  __shared__ float node[4];
  __shared__ float w[4][8];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int index = ty * 8 + tx;
  if (tx == 0)
    node[ty] = input[ty];
  __syncthreads();
  w[ty][tx] = weights_in[index];
  __syncthreads();
  w[ty][tx] = w[ty][tx] * node[ty];
  __syncthreads();
  for (int i = 1; i <= 2; i++) {
    if (ty % (1 << i) == 0)
      w[ty][tx] = w[ty][tx] + w[ty + (1 << (i - 1))][tx];
    __syncthreads();
  }
  hidden[index] = w[ty][tx];
  __syncthreads();
  if (tx == 0)
    output[ty] = w[tx][ty];
}
void launch(float* input, float* hidden, float* output, float* weights_in) {
  layerforward<<<1, dim3(8, 4)>>>(input, hidden, output, weights_in);
}
|}

let test_barrier_elimination_backprop () =
  let m = compile_ok backprop_like_src in
  Core.Canonicalize.run m;
  Core.Cse.run m;
  ignore (Core.Mem2reg.run m);
  Core.Canonicalize.run m;
  Core.Cse.run m;
  let before = count_barriers m in
  let eliminated = Core.Barrier_elim.run m in
  verify_ok m;
  Alcotest.(check bool)
    (Printf.sprintf "eliminated >= 2 of %d barriers (got %d)" before eliminated)
    true (eliminated >= 2)

let test_barrier_elim_preserves_semantics () =
  let input = Array.init 4 (fun i -> float_of_int (i + 1)) in
  let weights = Array.init 32 (fun i -> float_of_int (i mod 5) /. 4.0) in
  check_same_results backprop_like_src "launch"
    [| input; Array.make 32 0.0; Array.make 4 0.0; weights |]
    []
    (fun m ->
      Core.Cpuify.cleanup m;
      ignore (Core.Barrier_elim.run m))

(* A barrier that is genuinely required must never be eliminated. *)
let test_required_barrier_kept () =
  let src =
    {|
__global__ void shift(int* out, int* in) {
  __shared__ int buf[8];
  int t = threadIdx.x;
  buf[t] = in[t];
  __syncthreads();
  out[t] = buf[(t + 1) % 8];
}
void launch(int* out, int* in) { shift<<<1, 8>>>(out, in); }
|}
  in
  let m = compile_ok src in
  Core.Canonicalize.run m;
  Core.Cse.run m;
  ignore (Core.Mem2reg.run m);
  Core.Canonicalize.run m;
  let eliminated = Core.Barrier_elim.run m in
  Alcotest.(check int) "kept the required barrier" 0 eliminated

(* Accesses under [t == 1] and under [t == 0] are made by two different
   threads, so the barrier between them stays under every recipe.  A
   pin holds only within one iteration: across the loop's back edge,
   the write under [tx == i] reaches the next iteration's read under
   [tx == i - 1] in the same thread column, and the write under
   [tx == 3 - i] the read under [tx == 3 - i] in the thread one below,
   so the barrier ending the loop body stays too. *)
let test_pinned_guards_keep_barrier () =
  List.iter
    (fun src ->
      List.iter
        (fun (_, recipe) -> lowering_agrees ~recipe src "run" (float_out 8))
        Core.Passmgr.recipes)
    [ {|
__global__ void k(float* out) {
  int t = threadIdx.x;
  if (t == 1) { out[0] = 5.0f; }
  __syncthreads();
  if (t == 0) { out[1] = out[0]; }
}
void run(float* out) { k<<<1, 4>>>(out); }
|}
    ; {|
__global__ void k(float* out) {
  __shared__ float s[4];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  if (ty == 0) { s[tx] = 0.0f; }
  __syncthreads();
  for (int i = 0; i < 4; i++) {
    if (tx == i - 1) { out[tx + 4 * ty] = s[tx]; }
    if (tx == i) { if (ty == 1) { s[tx] = 1.0f; } }
    __syncthreads();
  }
}
void run(float* out) { k<<<1, dim3(4, 2)>>>(out); }
|}
    ; {|
__global__ void k(float* out) {
  __shared__ float s[5];
  int tx = threadIdx.x;
  s[tx] = 0.0f;
  if (tx == 0) { s[4] = 0.0f; }
  __syncthreads();
  for (int i = 0; i < 4; i++) {
    if (tx == 3 - i) { out[tx] = s[tx + 1]; }
    if (tx == 3 - i) { s[tx] = 1.0f; }
    __syncthreads();
  }
}
void run(float* out) { k<<<1, 4>>>(out); }
|}
    ]

(* A slab written at [tx + 8*ty] and read back at the same index after
   the barrier over an 8x8 block: the extents make the index injective,
   so every thread reads only its own write, the barrier goes and the
   slab with it.  Read at [tx + 7*ty] or at the neighbour
   [(tx + 1) % 8 + 8*ty], threads read each other's writes: the barrier
   and the slab stay. *)
let test_extents_decide_barrier () =
  let src read =
    Printf.sprintf
      {|
__global__ void k(float* out, float* in) {
  __shared__ float s[64];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int t = tx + 8 * ty;
  s[tx + 8 * ty] = in[t];
  __syncthreads();
  out[t] = s[%s] * 2.0f;
}
void run(float* out, float* in) { k<<<dim3(1, 1), dim3(8, 8)>>>(out, in); }
|}
      read
  in
  let args () =
    let out = Interp.Mem.of_float_array (Array.make 64 0.0) in
    let inp =
      Interp.Mem.of_float_array (Array.init 64 (fun i -> float_of_int (i + 1)))
    in
    (out, [ Interp.Mem.Buf out; Interp.Mem.Buf inp ])
  in
  let slabs = count (fun o -> o.Op.kind = Op.Alloca) in
  lowering_agrees
    ~shape:(fun m ->
      Alcotest.(check int) "no slab" 0 (slabs m);
      Alcotest.(check int) "no serial nest" 0
        (count (fun o -> o.Op.kind = Op.For) m))
    (src "tx + 8 * ty") "run" args;
  List.iter
    (fun read ->
      lowering_agrees
        ~shape:(fun m ->
          Alcotest.(check int) (read ^ ": slab kept") 1 (slabs m))
        (src read) "run" args)
    [ "tx + 7 * ty"; "(tx + 1) % 8 + 8 * ty" ]

(* --- parallel LICM: Fig. 1 --- *)

let fig1_src =
  {|
__device__ float sum(float* data, int n) {
  float total = 0.0f;
  for (int i = 0; i < n; i++) total += data[i];
  return total;
}
__global__ void normalize(float* out, float* in, int n) {
  int tid = blockIdx.x * blockDim.x + threadIdx.x;
  float val = sum(in, n);
  if (tid < n)
    out[tid] = in[tid] / val;
}
void launch(float* d_out, float* d_in, int n) {
  normalize<<<(n + 31) / 32, 32>>>(d_out, d_in, n);
}
|}

let licm_prep m =
  Core.Canonicalize.run m;
  Core.Cse.run m;
  ignore (Core.Mem2reg.run m);
  Core.Canonicalize.run m;
  Core.Cse.run m;
  ignore (Core.Licm.run m)

(* After lock-step LICM the O(N) call to @sum must sit outside both
   parallel loops: O(N^2) total work becomes O(N). *)
let test_parallel_licm_hoists_sum () =
  let m = compile_ok fig1_src in
  licm_prep m;
  verify_ok m;
  (* find the call and check no Parallel ancestor *)
  let info = Analysis.Info.build m in
  let ok = ref false in
  Op.iter
    (fun o ->
      match o.Op.kind with
      | Op.Call "sum" ->
        let rec no_par (x : Op.op) =
          match Analysis.Info.parent info x with
          | None -> true
          | Some p -> (match p.Op.kind with Op.Parallel _ -> false | _ -> no_par p)
        in
        if no_par o then ok := true
      | _ -> ())
    m;
  Alcotest.(check int) "one call to sum" 1 (count_calls "sum" m);
  Alcotest.(check bool) "call hoisted out of all parallel loops" true !ok

let test_licm_preserves_normalize () =
  let n = 40 in
  check_same_results fig1_src "launch"
    [| Array.make n 0.0; Array.init n (fun i -> float_of_int (i + 1)) |]
    [ n ] licm_prep

(* --- cpuify: splitting + interchange, differential --- *)

let reduction_src =
  {|
__global__ void block_sum(float* out, float* in) {
  __shared__ float buf[64];
  int t = threadIdx.x;
  buf[t] = in[blockIdx.x * 64 + t];
  __syncthreads();
  for (int s = 32; s > 0; s = s / 2) {
    if (t < s) buf[t] += buf[t + s];
    __syncthreads();
  }
  if (t == 0) out[blockIdx.x] = buf[0];
}
void launch(float* out, float* in, int nblocks) {
  block_sum<<<nblocks, 64>>>(out, in);
}
|}

let cpuify_full m = Core.Cpuify.pipeline m

let test_cpuify_removes_barriers_reduction () =
  let m = compile_ok reduction_src in
  cpuify_full m;
  verify_ok m;
  Alcotest.(check int) "no barriers" 0 (count_barriers m)

let test_cpuify_preserves_reduction () =
  let nblocks = 2 in
  check_same_results reduction_src "launch"
    [| Array.make nblocks 0.0
     ; Array.init (nblocks * 64) (fun i -> float_of_int (i mod 9))
    |]
    [ nblocks ] cpuify_full

let test_cpuify_preserves_backprop () =
  let input = Array.init 4 (fun i -> float_of_int (i + 1)) in
  let weights = Array.init 32 (fun i -> float_of_int (i mod 5) /. 4.0) in
  check_same_results backprop_like_src "launch"
    [| input; Array.make 32 0.0; Array.make 4 0.0; weights |]
    [] cpuify_full

(* barrier inside a while loop (the Fig. 8 pattern) *)
let while_barrier_src =
  {|
__global__ void iterate(float* data, int n) {
  __shared__ float maxval[1];
  int t = threadIdx.x;
  do {
    data[t] = data[t] * 0.5f;
    __syncthreads();
    if (t == 0) {
      float m = 0.0f;
      for (int i = 0; i < n; i++) {
        if (data[i] > m) m = data[i];
      }
      maxval[0] = m;
    }
    __syncthreads();
  } while (maxval[0] > 1.0f);
}
void launch(float* data, int n) { iterate<<<1, 8>>>(data, n); }
|}

let test_cpuify_preserves_while_barrier () =
  check_same_results while_barrier_src "launch"
    [| Array.init 8 (fun i -> float_of_int (i + 1)) |]
    [ 8 ] cpuify_full;
  let m = compile_ok while_barrier_src in
  cpuify_full m;
  Alcotest.(check int) "no barriers" 0 (count_barriers m)

(* --- min-cut cache minimization (Fig. 6) --- *)

let mincut_src =
  {|
__global__ void k(float* data, float* out) {
  int t = threadIdx.x;
  float x = data[t];
  float y = data[2 * t];
  float a = x * x;
  float b = y * y;
  float c = x - y;
  __syncthreads();
  data[t] = 0.0f;
  out[t] = a + b + c;
}
void launch(float* data, float* out) { k<<<1, 8>>>(data, out); }
|}

let split_only m = Core.Cpuify.run ~use_mincut:true m

let test_mincut_stores_two_of_five () =
  let m = compile_ok mincut_src in
  Core.Canonicalize.run m;
  Core.Cse.run m;
  ignore (Core.Mem2reg.run m);
  Core.Canonicalize.run m;
  Core.Cse.run m;
  Core.Split.reset_stats ();
  Core.Cpuify.run ~use_mincut:true m;
  verify_ok m;
  (* x and y must be cached; a, b, c recomputed *)
  Alcotest.(check int) "cached values" 2 Core.Split.stats.Core.Split.cached_values;
  Alcotest.(check bool) "recomputed >= 3" true
    (Core.Split.stats.Core.Split.recomputed_ops >= 3)

let test_mincut_differential () =
  check_same_results mincut_src "launch"
    [| Array.init 16 (fun i -> float_of_int i /. 3.0); Array.make 8 0.0 |]
    []
    (fun m ->
      Core.Canonicalize.run m;
      Core.Cse.run m;
      ignore (Core.Mem2reg.run m);
      Core.Canonicalize.run m;
      split_only m)

let test_no_mincut_stores_all () =
  let m = compile_ok mincut_src in
  Core.Canonicalize.run m;
  Core.Cse.run m;
  ignore (Core.Mem2reg.run m);
  Core.Canonicalize.run m;
  Core.Cse.run m;
  Core.Split.reset_stats ();
  Core.Cpuify.run ~use_mincut:false m;
  verify_ok m;
  Alcotest.(check bool)
    (Printf.sprintf "caches more without min-cut (%d)"
       Core.Split.stats.Core.Split.cached_values)
    true
    (Core.Split.stats.Core.Split.cached_values >= 3)

let tests =
  [ Alcotest.test_case "constant folding" `Quick test_constant_folding
  ; Alcotest.test_case "if folding" `Quick test_if_folding
  ; Alcotest.test_case "cse unifies" `Quick test_cse_unifies
  ; Alcotest.test_case "mem2reg slots disappear" `Quick
      test_mem2reg_slots_disappear
  ; Alcotest.test_case "zero-step loop keeps its trap" `Quick
      test_zero_step_loop_kept
  ; Alcotest.test_case "empty loop nest collapses" `Quick
      test_empty_nest_collapses
  ; Alcotest.test_case "f32 folds keep the engines' bits" `Quick
      test_f32_folds_keep_bits
  ; Alcotest.test_case "float identities keep signed zeros" `Quick
      test_signed_zero_identities
  ; Alcotest.test_case "dce keeps a division's trap" `Quick
      test_dce_keeps_trap
  ; Alcotest.test_case "licm hoists no trap" `Quick test_licm_adds_no_trap
  ; Alcotest.test_case "licm guards a load out of an empty loop" `Quick
      test_licm_guards_empty_loop
  ; Alcotest.test_case "collapse keeps a division's trap" `Quick
      test_collapse_keeps_trap
  ; Alcotest.test_case "range facts fold guards and one-trip loops" `Quick
      test_range_folds
  ; Alcotest.test_case "mem2reg carries values" `Quick test_mem2reg_carried
  ; Alcotest.test_case "mem2reg slot stays across barriers" `Quick
      test_mem2reg_barrier_boundary
  ; Alcotest.test_case "forwarding across barrier" `Quick
      test_forwarding_across_barrier
  ; Alcotest.test_case "barrier elimination backprop" `Quick
      test_barrier_elimination_backprop
  ; Alcotest.test_case "barrier elim differential" `Quick
      test_barrier_elim_preserves_semantics
  ; Alcotest.test_case "required barrier kept" `Quick test_required_barrier_kept
  ; Alcotest.test_case "guards pinning different threads keep a barrier" `Quick
      test_pinned_guards_keep_barrier
  ; Alcotest.test_case "thread extents decide a slab's barrier" `Quick
      test_extents_decide_barrier
  ; Alcotest.test_case "parallel licm hoists sum" `Quick
      test_parallel_licm_hoists_sum
  ; Alcotest.test_case "licm differential" `Quick test_licm_preserves_normalize
  ; Alcotest.test_case "cpuify removes barriers" `Quick
      test_cpuify_removes_barriers_reduction
  ; Alcotest.test_case "cpuify reduction differential" `Quick
      test_cpuify_preserves_reduction
  ; Alcotest.test_case "cpuify backprop differential" `Quick
      test_cpuify_preserves_backprop
  ; Alcotest.test_case "cpuify while-barrier differential" `Quick
      test_cpuify_preserves_while_barrier
  ; Alcotest.test_case "mincut stores two of five" `Quick
      test_mincut_stores_two_of_five
  ; Alcotest.test_case "mincut differential" `Quick test_mincut_differential
  ; Alcotest.test_case "no-mincut stores all" `Quick test_no_mincut_stores_all
  ]

(* appended: the warp-shuffle emulation must survive the whole pipeline *)
let warp_reduce_src =
  {|
__global__ void warp_sum(float* out, float* in) {
  int t = threadIdx.x;
  float v = in[blockIdx.x * 32 + t];
  for (int d = 16; d > 0; d = d / 2) {
    v += __shfl_down_sync(0xffffffff, v, d);
  }
  if (t == 0) out[blockIdx.x] = v;
}
void launch(float* out, float* in, int nblocks) {
  warp_sum<<<nblocks, 32>>>(out, in);
}
|}

let test_cpuify_preserves_warp_shuffle () =
  check_same_results warp_reduce_src "launch"
    [| Array.make 2 0.0; Array.init 64 (fun i -> float_of_int (i mod 7)) |]
    [ 2 ] cpuify_full;
  let m = compile_ok warp_reduce_src in
  cpuify_full m;
  Alcotest.(check int) "no barriers" 0 (count_barriers m)

(* A lazy side holding a shuffle (two barriers) cannot sit in a
   value-yielding scf.if, so [?:] and [&&] keep a scratch slot there;
   with a uniform condition the kernel still lowers at Primary and the
   interpreter on the frontend IR, the interpreter on the lowered IR and
   the engine agree bit for bit. *)
let warp_cond_src =
  {|
__global__ void warp_cond(float* out, float* in, int off) {
  int t = threadIdx.x;
  float v = in[blockIdx.x * 32 + t];
  v = (off > 0) ? __shfl_down_sync(0xffffffff, v, off) : v;
  if (off > 1 && __shfl_down_sync(0xffffffff, v, 1) > 3.0f) v = v + 100.0f;
  out[blockIdx.x * 32 + t] = v;
}
void launch(float* out, float* in, int nblocks, int off) {
  warp_cond<<<nblocks, 32>>>(out, in, off);
}
|}

let test_lazy_shuffle_lowers () =
  let inputs = Array.init 64 (fun i -> float_of_int (i mod 7)) in
  let run exec m off =
    let out = Interp.Mem.of_float_array (Array.make 64 0.0) in
    let args =
      [ Interp.Mem.Buf out
      ; Interp.Mem.Buf (Interp.Mem.of_float_array inputs)
      ; Interp.Mem.Int 2
      ; Interp.Mem.Int off
      ]
    in
    exec m args;
    Array.map Int64.bits_of_float (Interp.Mem.float_contents out)
  in
  let interp m a = ignore (Interp.Eval.run m "launch" a) in
  let engine m a = ignore (Runtime.Exec.run_module ~domains:2 m "launch" a) in
  let front = compile_ok warp_cond_src in
  Alcotest.(check int) "no value-yielding if holds a barrier" 0
    (count (fun o -> Op.carries_values o && Op.contains_barrier o) front);
  let m = compile_ok warp_cond_src in
  (match
     Core.Passmgr.lower
       (Core.Passmgr.Optimized Core.Omp_lower.default_options)
       m
   with
   | Ok r ->
     Alcotest.(check bool) "lowered at Primary" false (Core.Passmgr.degraded r)
   | Error (_, e) -> Alcotest.failf "lowering failed: %s" e);
  verify_ok ~what:"lowered IR" m;
  List.iter
    (fun off ->
      let want = run interp front off in
      let label what = Printf.sprintf "off = %d, %s" off what in
      Alcotest.(check (array int64)) (label "lowered, interpreter") want
        (run interp m off);
      Alcotest.(check (array int64)) (label "lowered, engine") want
        (run engine m off))
    [ 0; 1; 2 ]

let tests =
  tests
  @ [ Alcotest.test_case "cpuify warp-shuffle differential" `Quick
        test_cpuify_preserves_warp_shuffle
    ; Alcotest.test_case "lazy shuffle keeps a slot and lowers" `Quick
        test_lazy_shuffle_lowers
    ]
