(* Rodinia backprop (the paper's Fig. 9 kernel) through the whole system:
   barrier elimination proves the redundant __syncthreads away, mem2reg
   forwards the shared-memory round trip across the remaining barrier,
   fission + interchange lower the rest, and the transpiled program is
   compared against the original GPU semantics and against the
   hand-written OpenMP reference.

     dune exec examples/rodinia_backprop.exe *)

let count p m =
  let n = ref 0 in
  Ir.Op.iter (fun o -> if p o then incr n) m;
  !n

let barriers = count (fun o -> o.Ir.Op.kind = Ir.Op.Barrier)

let () =
  let b = Rodinia.Backprop.bench in
  Printf.printf "benchmark: %s — %s\n\n" b.name b.description;
  let m = Cudafe.Codegen.compile b.cuda_src in
  Printf.printf "barriers after frontend           : %d\n" (barriers m);
  Core.Canonicalize.run m;
  Core.Cse.run m;
  let r = Core.Mem2reg.run m in
  Printf.printf
    "mem2reg: %d loads forwarded (incl. across barriers), %d dead stores, %d dead allocas\n"
    r.Core.Mem2reg.forwarded_loads r.Core.Mem2reg.removed_stores
    r.Core.Mem2reg.removed_allocas;
  Core.Canonicalize.run m;
  Core.Cse.run m;
  let eliminated = Core.Barrier_elim.run m in
  Printf.printf "barrier elimination               : %d removed (the Fig. 9 redundant syncs)\n"
    eliminated;
  Core.Cpuify.run m;
  Printf.printf "barriers after fission/interchange: %d\n" (barriers m);
  let rep = Core.Omp_lower.run m in
  Printf.printf
    "omp lowering: %d regions fused, %d hoisted, %d collapsed, %d serialized\n\n"
    rep.Core.Omp_lower.fused rep.Core.Omp_lower.hoisted
    rep.Core.Omp_lower.collapsed rep.Core.Omp_lower.serialized;
  (* differential check against GPU semantics *)
  let checksum m =
    let w = b.mk_workload b.test_size in
    let _ = Interp.Eval.run ~team_size:4 m b.entry (Rodinia.Bench_def.args_of_workload w) in
    Interp.Mem.checksum w.buffers
  in
  let reference = checksum (Cudafe.Codegen.compile b.cuda_src) in
  let got = checksum m in
  Printf.printf "GPU-semantics checksum : %.17g\n" reference;
  Printf.printf "transpiled checksum    : %.17g  (match: %b)\n\n" got
    (Float.equal reference got);
  (* simulated comparison with the hand-written OpenMP version *)
  let args = Rodinia.Bench_def.cost_args b b.paper_size in
  let t m = (Runtime.Cost.of_func Runtime.Machine.commodity ~threads:32 m b.entry args).Runtime.Cost.seconds in
  let omp = Cudafe.Codegen.compile (Option.get b.omp_src) in
  Core.Canonicalize.run omp;
  Core.Cse.run omp;
  ignore (Core.Mem2reg.run omp);
  Core.Canonicalize.run omp;
  ignore (Core.Omp_lower.run omp);
  Printf.printf "simulated time, 32 threads (commodity model):\n";
  Printf.printf "  transpiled CUDA      : %.3e s\n" (t m);
  Printf.printf "  hand-written OpenMP  : %.3e s\n" (t omp)
