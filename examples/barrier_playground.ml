(* A tour of the barrier memory semantics (Sec. III-A / IV-A): three small
   kernels whose synchronization the analysis judges differently, printed
   with the verdicts and the resulting lowered code shapes.

     dune exec examples/barrier_playground.exe *)

let count_barriers m =
  let n = ref 0 in
  Ir.Op.iter (fun o -> if o.Ir.Op.kind = Ir.Op.Barrier then incr n) m;
  !n

let case ~name ~expect src =
  Printf.printf "--- %s ---\n%s\n" name src;
  let m = Cudafe.Codegen.compile src in
  Core.Cpuify.cleanup m;
  let before = count_barriers m in
  let eliminated = Core.Barrier_elim.run m in
  Printf.printf "barriers: %d, eliminated as redundant: %d  (%s)\n\n" before
    eliminated expect

let () =
  (* Fig. 5: the same thread writes and reads A[tid] — the barrier's
     effect set excludes the current thread, so it is redundant. *)
  case ~name:"injective per-thread access (Fig. 5)"
    ~expect:"expected: 1 eliminated — A[tid] is injective in the thread id"
    {|
__global__ void k(float* A) {
  int t = threadIdx.x;
  A[t] = A[t] * 2.0f;
  __syncthreads();
  A[t] = A[t] + 1.0f;
}
void launch(float* A) { k<<<1, 32>>>(A); }
|};
  (* the offset-by-one variant the paper contrasts it with *)
  case ~name:"offset-by-one access"
    ~expect:"expected: 0 eliminated — A[t+1] is written by another thread"
    {|
__global__ void k(float* A) {
  int t = threadIdx.x;
  A[t] = A[t] * 2.0f;
  __syncthreads();
  if (t < 31) A[t] = A[t + 1];
}
void launch(float* A) { k<<<1, 32>>>(A); }
|};
  (* disjoint arrays before/after: nothing to order *)
  case ~name:"disjoint arrays"
    ~expect:"expected: 1 eliminated — no conflicting location across the barrier"
    {|
__global__ void k(float* A, float* B) {
  int t = threadIdx.x;
  A[t] = 1.0f;
  __syncthreads();
  B[t] = 2.0f;
}
void launch(float* A, float* B) { k<<<1, 32>>>(A, B); }
|};
  (* a genuinely required barrier survives and gets lowered by fission *)
  let src =
    {|
__global__ void k(float* A, float* B) {
  int t = threadIdx.x;
  A[t] = B[t] * 2.0f;
  __syncthreads();
  B[t] = A[(t + 1) % 32];
}
void launch(float* A, float* B) { k<<<1, 32>>>(A, B); }
|}
  in
  Printf.printf "--- required barrier: lowered by parallel loop fission ---\n";
  let m = Cudafe.Codegen.compile src in
  Core.Cpuify.pipeline m;
  ignore (Core.Omp_lower.run m);
  Core.Canonicalize.run m;
  Printf.printf "%s\n" (Ir.Printer.op_to_string m);
  Printf.printf "remaining polygeist.barrier ops: %d (the omp.barrier above is the\n"
    (count_barriers m);
  Printf.printf "team-level join the fission produced)\n"
