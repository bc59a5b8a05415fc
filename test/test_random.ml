(* Property-based differential testing: randomly generated (race-free by
   construction) CUDA kernels with shared memory, barriers, thread guards
   and small serial loops must produce identical results under

   - original GPU semantics,
   - the full optimization + barrier-lowering + OpenMP pipeline,
   - the MCUDA-style baseline lowering,

   for several OpenMP team sizes.  Phases alternate between per-thread
   statements (race-free without synchronization) and cross-thread reads
   guarded by an explicit __syncthreads, so every generated program is
   deterministic and the comparison is exact. *)

let nthreads = 8

(* One per-thread statement: reads/writes only index [t] of shared arrays
   (plus the input), so it is race-free within a phase. *)
let per_thread_stmt rng =
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let dst = pick [ "s1"; "s2" ] in
  let src = pick [ "s1"; "s2" ] in
  let c = 1 + Random.State.int rng 5 in
  pick
    [ Printf.sprintf "%s[t] = %s[t] + %d.0f;" dst src c
    ; Printf.sprintf "%s[t] = %s[t] * 0.%df + in[b * %d + t];" dst src c
        nthreads
    ; Printf.sprintf "%s[t] = in[b * %d + t] - %s[t];" dst nthreads src
    ; Printf.sprintf "if (t < %d) { %s[t] = %s[t] + 1.0f; }"
        (1 + Random.State.int rng (nthreads - 1))
        dst dst
    ; (* only the thread's own slot: reading another thread's slot here
         would race with its write in the same barrier interval *)
      Printf.sprintf "if (t == 0) { %s[0] = %s[0] * 2.0f; }" dst src
    ]

(* A cross-thread phase: each thread reads a rotated index of one array
   and writes the other.  The read races with any same-interval write to
   the source array, so the whole phase is fenced by barriers on both
   sides. *)
let cross_thread_phase rng =
  let k = 1 + Random.State.int rng (nthreads - 1) in
  let a, b = if Random.State.bool rng then ("s1", "s2") else ("s2", "s1") in
  Printf.sprintf
    "__syncthreads();\n  %s[t] = %s[(t + %d) %% %d] * 0.5f;\n  __syncthreads();"
    a b k nthreads

let loop_phase rng =
  let trips = 1 + Random.State.int rng 3 in
  let body = per_thread_stmt rng in
  let sync = if Random.State.bool rng then "\n    __syncthreads();" else "" in
  Printf.sprintf "for (int i = 0; i < %d; i++) {\n    %s%s\n  }" trips body
    sync

let gen_kernel seed =
  let rng = Random.State.make [| seed |] in
  let n_phases = 3 + Random.State.int rng 5 in
  let phases =
    List.init n_phases (fun _ ->
        match Random.State.int rng 4 with
        | 0 | 1 -> per_thread_stmt rng
        | 2 -> cross_thread_phase rng
        | _ -> loop_phase rng)
  in
  Printf.sprintf
    {|
__global__ void k(float* out, float* in) {
  __shared__ float s1[%d];
  __shared__ float s2[%d];
  int t = threadIdx.x;
  int b = blockIdx.x;
  s1[t] = in[b * %d + t];
  s2[t] = 0.0f;
  __syncthreads();
  %s
  __syncthreads();
  out[b * %d + t] = s1[t] + s2[t];
}
void launch(float* out, float* in) { k<<<2, %d>>>(out, in); }
|}
    nthreads nthreads nthreads
    (String.concat "\n  " phases)
    nthreads nthreads

let checksum ?(team_size = 3) m =
  let n = 2 * nthreads in
  let inp =
    Interp.Mem.of_float_array
      (Array.init n (fun i -> float_of_int ((i * 7 mod 11) + 1) /. 3.0))
  in
  let out = Interp.Mem.of_float_array (Array.make n 0.0) in
  let _ =
    Interp.Eval.run ~team_size m "launch"
      [ Interp.Mem.Buf out; Interp.Mem.Buf inp ]
  in
  Interp.Mem.checksum [| out |]

let differential_property transform seed =
  let src = gen_kernel seed in
  let reference = checksum (Cudafe.Codegen.compile src) in
  let m = Cudafe.Codegen.compile src in
  transform m;
  (match Ir.Verifier.verify_result m with
   | Ok () -> ()
   | Error e ->
     QCheck.Test.fail_reportf "seed %d: lowered IR does not verify: %s\n%s"
       seed e src);
  List.for_all
    (fun ts ->
      let got = checksum ~team_size:ts m in
      Float.equal reference got
      ||
      QCheck.Test.fail_reportf
        "seed %d (team %d): results differ\nsource:\n%s" seed ts src)
    [ 1; 4; 5 ]

let test_pipeline =
  QCheck.Test.make ~name:"random kernels: full pipeline differential"
    ~count:60 QCheck.small_nat
    (differential_property (fun m ->
         Core.Cpuify.pipeline m;
         ignore (Core.Omp_lower.run m);
         Core.Canonicalize.run m))

let test_pipeline_inner_par =
  QCheck.Test.make ~name:"random kernels: inner-parallel differential"
    ~count:30 QCheck.small_nat
    (differential_property (fun m ->
         Core.Cpuify.pipeline m;
         ignore (Core.Omp_lower.run ~options:Core.Omp_lower.inner_par_options m);
         Core.Canonicalize.run m))

let test_mcuda =
  QCheck.Test.make ~name:"random kernels: MCUDA baseline differential"
    ~count:30 QCheck.small_nat
    (differential_property Mcuda.lower)

let test_affine_unroll =
  QCheck.Test.make ~name:"random kernels: affine unroll differential"
    ~count:30 QCheck.small_nat
    (differential_property (fun m ->
         ignore (Core.Affine_opt.run m);
         Core.Cpuify.pipeline m;
         ignore (Core.Omp_lower.run m);
         Core.Canonicalize.run m))

(* Random fault plans through the fault-tolerant pass manager: whatever
   the plan takes down, the pipeline must recover via the degradation
   ladder and the degraded module must still match the original GPU
   semantics exactly.

   The plan is part of the QCheck input (not regrown from the seed
   inside the property), so a failing case SHRINKS: QCheck drops plan
   entries one at a time, simplifies kinds toward Raise and shrinks the
   kernel seed, and the counterexample prints as the smallest
   (seed, plan) pair that still breaks. *)
let arb_seeded_plan =
  let gen =
    QCheck.Gen.(
      small_nat >>= fun seed ->
      list_size (int_range 1 3)
        (pair
           (oneofl (Core.Cpuify.stage_names ()))
           (oneofl Core.Fault.[ Raise; Corrupt; Exhaust; Hang ]))
      >>= fun plan -> return (seed, plan))
  in
  let print (seed, plan) =
    Printf.sprintf "seed=%d plan=%s" seed (Core.Fault.plan_to_string plan)
  in
  let shrink (seed, plan) yield =
    let rec drops pre = function
      | [] -> ()
      | e :: rest ->
        yield (seed, List.rev_append pre rest);
        drops (e :: pre) rest
    in
    drops [] plan;
    List.iteri
      (fun i (s, k) ->
        if k <> Core.Fault.Raise then
          yield
            ( seed
            , List.mapi
                (fun j e -> if j = i then (s, Core.Fault.Raise) else e)
                plan ))
      plan;
    QCheck.Shrink.int seed (fun seed' -> yield (seed', plan))
  in
  QCheck.make ~print ~shrink gen

let test_faulted_passmgr =
  QCheck.Test.make ~name:"random kernels: seeded-fault pass-manager differential"
    ~count:40 arb_seeded_plan (fun (seed, faults) ->
      let src = gen_kernel seed in
      let reference = checksum (Cudafe.Codegen.compile src) in
      let m = Cudafe.Codegen.compile src in
      (match Core.Passmgr.run_pipeline ~faults m with
       | Ok _ -> ()
       | Error (_, f) ->
         QCheck.Test.fail_reportf "seed %d: unrecoverable under plan %s: %s\n%s"
           seed
           (Core.Fault.plan_to_string faults)
           (Core.Passmgr.failure_to_string f)
           src);
      ignore (Core.Omp_lower.run m);
      Core.Canonicalize.run m;
      (match Ir.Verifier.verify_result m with
       | Ok () -> ()
       | Error e ->
         QCheck.Test.fail_reportf
           "seed %d: degraded IR does not verify under plan %s: %s\n%s" seed
           (Core.Fault.plan_to_string faults)
           e src);
      List.for_all
        (fun ts ->
          let got = checksum ~team_size:ts m in
          Float.equal reference got
          ||
          QCheck.Test.fail_reportf
            "seed %d (team %d, plan %s): results differ\nsource:\n%s" seed ts
            (Core.Fault.plan_to_string faults)
            src)
        [ 1; 4; 5 ])

(* Min-cut sanity on random SSA graphs: the cut never exceeds the number
   of sinks or sources (either side is a trivial cut). *)
let test_mincut_bound =
  QCheck.Test.make ~name:"mincut: flow bounded by trivial cuts" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (seed, extra) ->
      let rng = Random.State.make [| seed; extra |] in
      let n = 2 + Random.State.int rng 12 in
      (* node-split graph: 2n + s + t *)
      let g = Core.Mincut.create ~nnodes:((2 * n) + 2) in
      let s = 2 * n and t = (2 * n) + 1 in
      let sources = ref 0 and sinks = ref 0 in
      for i = 0 to n - 1 do
        Core.Mincut.add_edge g (2 * i) ((2 * i) + 1) ~cap:1;
        if Random.State.int rng 3 = 0 then begin
          incr sources;
          Core.Mincut.add_edge g s (2 * i) ~cap:Core.Mincut.inf
        end;
        if Random.State.int rng 3 = 0 then begin
          incr sinks;
          Core.Mincut.add_edge g ((2 * i) + 1) t ~cap:Core.Mincut.inf
        end;
        (* forward edges to later nodes *)
        for j = i + 1 to n - 1 do
          if Random.State.int rng 4 = 0 then
            Core.Mincut.add_edge g ((2 * i) + 1) (2 * j) ~cap:Core.Mincut.inf
        done
      done;
      let flow = Core.Mincut.max_flow g ~s ~t in
      flow <= min !sources !sinks || flow <= n)

let tests =
  List.map QCheck_alcotest.to_alcotest
    [ test_pipeline; test_pipeline_inner_par; test_mcuda; test_affine_unroll
    ; test_faulted_passmgr; test_mincut_bound
    ]
