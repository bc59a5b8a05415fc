(* OpenMP lowering tests: differential against GPU semantics under several
   team sizes, structural checks for the Sec. IV-D optimizations, and
   sanity properties of the simulated-time cost model. *)

open Ir

let compile_ok src =
  let m = Cudafe.Codegen.compile src in
  (match Verifier.verify_result m with
   | Ok () -> ()
   | Error e -> Alcotest.failf "IR does not verify: %s" e);
  m

let verify_ok m =
  match Verifier.verify_result m with
  | Ok () -> ()
  | Error e ->
    Alcotest.failf "lowered IR does not verify: %s\n%s" e (Printer.op_to_string m)

let lower ?(options = Core.Omp_lower.default_options) m =
  Core.Cpuify.pipeline m;
  let report = Core.Omp_lower.run ~options m in
  Core.Canonicalize.run m;
  verify_ok m;
  report

(* The paper's "openmpopt" ablation: the same recipe without collapse,
   fusion and hoisting. *)
let openmpopt_off (o : Core.Omp_lower.options) =
  { o with Core.Omp_lower.openmpopt = false }

(* With openmpopt off none of the three region optimizations runs. *)
let check_openmpopt_off (r : Core.Omp_lower.report) =
  Alcotest.(check (list int))
    "collapsed, fused, hoisted with openmpopt off" [ 0; 0; 0 ]
    [ r.Core.Omp_lower.collapsed; r.fused; r.hoisted ]

let count p m =
  let n = ref 0 in
  Op.iter (fun o -> if p o then incr n) m;
  !n

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

let saxpy_src =
  {|
__global__ void saxpy(float* y, float* x, float a, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) y[i] = a * x[i] + y[i];
}
void launch(float* y, float* x, int n) {
  saxpy<<<(n + 63) / 64, 64>>>(y, x, 2.0f, n);
}
|}

let run_buffers ?(team_size = 4) m fname (bufs : float array array) scalars =
  let copies = Array.map Array.copy bufs in
  let rbufs = Array.map Interp.Mem.of_float_array copies in
  let args =
    Array.to_list (Array.map (fun b -> Interp.Mem.Buf b) rbufs)
    @ List.map (fun n -> Interp.Mem.Int n) scalars
  in
  let _ = Interp.Eval.run ~team_size m fname args in
  Array.map Interp.Mem.float_contents rbufs

let check_differential ?(eps = 1e-4) src fname bufs scalars options =
  let reference =
    let m = compile_ok src in
    run_buffers m fname bufs scalars
  in
  let m = compile_ok src in
  let report = lower ~options m in
  if not options.Core.Omp_lower.openmpopt then check_openmpopt_off report;
  Alcotest.(check int)
    "no scf.parallel left" 0
    (count (fun o -> match o.Op.kind with Op.Parallel _ -> true | _ -> false) m);
  List.iter
    (fun ts ->
      let got = run_buffers ~team_size:ts m fname bufs scalars in
      Array.iteri
        (fun bi exp ->
          Array.iteri
            (fun i e ->
              if Float.abs (e -. got.(bi).(i)) > eps then
                Alcotest.failf "team=%d buffer %d index %d: expected %g, got %g"
                  ts bi i e got.(bi).(i))
            exp)
        reference)
    [ 1; 2; 4; 7 ]

let reduction_bufs () =
  [| Array.make 2 0.0; Array.init 128 (fun i -> float_of_int (i mod 9)) |]

let with_openmpopt_off o = [ o; openmpopt_off o ]

let test_lower_reduction_inner_serial () =
  List.iter
    (check_differential reduction_src "launch" (reduction_bufs ()) [ 2 ])
    (with_openmpopt_off Core.Omp_lower.default_options)

let test_lower_reduction_inner_parallel () =
  List.iter
    (check_differential reduction_src "launch" (reduction_bufs ()) [ 2 ])
    (with_openmpopt_off Core.Omp_lower.inner_par_options)

let test_lower_saxpy_collapses () =
  let m = compile_ok saxpy_src in
  Core.Cpuify.pipeline m;
  let report = Core.Omp_lower.run m in
  verify_ok m;
  Alcotest.(check bool) "collapsed grid+block" true
    (report.Core.Omp_lower.collapsed >= 1);
  (* a collapsed saxpy is a single parallel region with a single 6-D (or
     2-D) worksharing loop *)
  Alcotest.(check int) "one omp.parallel" 1
    (count (fun o -> o.Op.kind = Op.OmpParallel) m)

let test_lower_saxpy_differential () =
  let n = 100 in
  List.iter
    (check_differential saxpy_src "launch"
       [| Array.init n (fun i -> float_of_int i)
        ; Array.init n (fun i -> float_of_int (n - i))
       |]
       [ n ])
    (with_openmpopt_off Core.Omp_lower.default_options)

let test_fusion_counts () =
  (* the reduction pipeline fissions into several adjacent parallel loops:
     with nested regions kept parallel, fusion and hoisting must merge
     thread-team startups *)
  let m = compile_ok reduction_src in
  Core.Cpuify.pipeline m;
  let report = Core.Omp_lower.run ~options:Core.Omp_lower.inner_par_options m in
  verify_ok m;
  Alcotest.(check bool)
    (Printf.sprintf "fused (%d) + hoisted (%d) > 0" report.Core.Omp_lower.fused
       report.Core.Omp_lower.hoisted)
    true
    (report.Core.Omp_lower.fused + report.Core.Omp_lower.hoisted > 0)

(* --- cost model sanity --- *)

let cost_of ?(threads = 8) ?(options = Core.Omp_lower.default_options) src n =
  let m = compile_ok src in
  ignore (lower ~options m);
  let r =
    Runtime.Cost.of_func Runtime.Machine.commodity ~threads m "launch"
      [ Runtime.Cost.Unk; Runtime.Cost.Unk; Runtime.Cost.Ki n ]
  in
  r.Runtime.Cost.seconds

let test_cost_scales_with_threads () =
  let t1 = cost_of ~threads:1 saxpy_src 100_000 in
  let t8 = cost_of ~threads:8 saxpy_src 100_000 in
  let t32 = cost_of ~threads:32 saxpy_src 100_000 in
  Alcotest.(check bool)
    (Printf.sprintf "1t %.3e > 8t %.3e > 32t*0.9 %.3e" t1 t8 t32)
    true
    (t1 > t8 && t8 >= t32 *. 0.9)

let test_cost_scales_with_size () =
  let small = cost_of saxpy_src 10_000 in
  let large = cost_of saxpy_src 1_000_000 in
  Alcotest.(check bool)
    (Printf.sprintf "small %.3e < large %.3e" small large)
    true (small < large)

let test_inner_serial_cheaper () =
  (* nested parallelism pays nested-team spawns; serialization avoids
     them (the paper's InnerSer vs InnerPar, Fig. 12) *)
  let ser =
    cost_of ~options:Core.Omp_lower.default_options reduction_src 64
  in
  let par =
    cost_of ~options:Core.Omp_lower.inner_par_options reduction_src 64
  in
  Alcotest.(check bool)
    (Printf.sprintf "serial %.3e <= parallel %.3e" ser par)
    true (ser <= par)

(* A loop whose bounds depend on an enclosing serial loop's iv is costed
   at that iv's mean, so a triangular nest's simulated time grows as n^2
   (the default trip count of 16 would make it grow as n). *)
let triangle_src =
  {|
void launch(float* a, float* b, int n) {
  for (int i = 0; i < n; i++) {
    for (int j = i; j < n; j++) { a[j] = a[j] + b[i]; }
  }
}
|}

let test_cost_triangular_nest () =
  let t n = cost_of ~threads:1 triangle_src n in
  let r = t 2000 /. t 1000 in
  Alcotest.(check bool)
    (Printf.sprintf "t(2n) / t(n) = %.2f, about 4" r)
    true
    (r > 3.5 && r < 4.5)

let tests =
  [ Alcotest.test_case "reduction lowering (inner serial)" `Quick
      test_lower_reduction_inner_serial
  ; Alcotest.test_case "reduction lowering (inner parallel)" `Quick
      test_lower_reduction_inner_parallel
  ; Alcotest.test_case "saxpy collapses" `Quick test_lower_saxpy_collapses
  ; Alcotest.test_case "saxpy lowering differential" `Quick
      test_lower_saxpy_differential
  ; Alcotest.test_case "fusion/hoist fire" `Quick test_fusion_counts
  ; Alcotest.test_case "cost scales with threads" `Quick
      test_cost_scales_with_threads
  ; Alcotest.test_case "cost scales with size" `Quick test_cost_scales_with_size
  ; Alcotest.test_case "inner serialization cheaper" `Quick
      test_inner_serial_cheaper
  ; Alcotest.test_case "cost of a triangular nest grows as n^2" `Quick
      test_cost_triangular_nest
  ]

(* appended: suite-wide cost-model sanity *)

(* Simulated time must never increase with more threads, for every
   benchmark in the suite, under both lowering modes. *)
let test_cost_monotonic_across_suite () =
  List.iter
    (fun (b : Rodinia.Bench_def.t) ->
      let m = compile_ok b.cuda_src in
      Core.Cpuify.pipeline m;
      ignore (Core.Omp_lower.run m);
      Core.Canonicalize.run m;
      let args = Rodinia.Bench_def.cost_args b b.paper_size in
      let t threads =
        (Runtime.Cost.of_func Runtime.Machine.commodity ~threads m b.entry args)
          .Runtime.Cost.seconds
      in
      let prev = ref (t 1) in
      List.iter
        (fun th ->
          let cur = t th in
          if cur > !prev *. 1.0001 then
            Alcotest.failf "%s: time grew from %g to %g at %d threads" b.name
              !prev cur th;
          prev := cur)
        [ 2; 4; 8; 16; 32 ])
    Rodinia.Registry.all

(* Fig. 7/8 shape: lowering a barrier inside a serial loop interchanges
   the loops — the lowered reduction contains a serial loop (the
   descending tile loop is non-canonical, so it becomes an scf.while and
   takes the Fig. 8 helper path) whose body contains worksharing, not the
   other way around. *)
let test_interchange_shape () =
  let m = compile_ok reduction_src in
  Core.Cpuify.pipeline m;
  ignore (Core.Omp_lower.run ~options:Core.Omp_lower.inner_par_options m);
  let info = Analysis.Info.build m in
  let found = ref false in
  Ir.Op.iter
    (fun o ->
      if o.Ir.Op.kind = Ir.Op.OmpWsloop then begin
        (* some worksharing loop has a serial loop as ancestor *)
        let rec up (x : Ir.Op.op) =
          match Analysis.Info.parent info x with
          | None -> ()
          | Some p -> begin
            match p.Ir.Op.kind with
            | Ir.Op.For | Ir.Op.While -> found := true
            | _ -> up p
          end
        in
        up o
      end)
    m;
  Alcotest.(check bool) "serial loop encloses worksharing (Fig. 7/8)" true
    !found

let tests =
  tests
  @ [ Alcotest.test_case "cost monotonic across suite" `Quick
        test_cost_monotonic_across_suite
    ; Alcotest.test_case "interchange shape (Fig. 7/8)" `Quick
        test_interchange_shape
    ]
