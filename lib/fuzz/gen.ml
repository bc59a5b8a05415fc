(* Seeded generator of well-formed mini-CUDA kernels for differential
   fuzzing.  Every generated program is race-free and deterministic by
   construction — the same discipline as [test_random]: within one
   barrier interval a thread only touches its own slot of each shared
   array, and any cross-thread read is fenced by [__syncthreads] on both
   sides.  That makes the GPU-semantics interpreter's result the unique
   correct answer, so any divergence after a pipeline stage is a
   transformation bug, never generator noise.

   The phase mix is deliberately biased toward the constructs the
   barrier-lowering passes have to get right:

   - values live across a barrier (the min-cut splitter must cache
     exactly the crossing set),
   - [for]/[while] loops containing uniform barriers (loop interchange,
     including the thread-0 condition capture for [while]),
   - barriers whose only job is protecting a write-after-read (the
     redundant-barrier eliminator must keep them),
   - thread-0 reductions and block-uniform [if]s (divergent-looking but
     uniform barrier positions),
   - scalar temporaries: lazy [&&]/[||]/[?:] with a faulting side,
     conditionally assigned locals and loop accumulators (mem2reg's
     if results and iter_args),
   - literal-on-literal float arithmetic and signed zeros (constant
     folding must keep every engine's bits),
   - guards at and one off the thread extent, division and remainder
     of possibly negative values by powers of two, and one-trip loops
     (the integer range facts of canonicalization),
   - two guards pinning the thread id to different values around a
     barrier (barrier elimination must keep it).

   The frontend has no atomics, so the guarded thread-0 reduction phase
   stands in for the atomic-update pattern. *)

let blocks = 2

type cfg =
  { threads : int
  ; n : int (* total elements: blocks * threads *)
  }

let cfg_of_seed seed =
  let rng = Random.State.make [| 0x5eed; seed |] in
  let threads = if Random.State.bool rng then 4 else 8 in
  { threads; n = blocks * threads }

(* Each phase is a string of statements; [fresh] keeps scalar names
   unique so mem2reg sees straight-line SSA-able locals. *)
type st =
  { rng : Random.State.t
  ; t : int (* threads per block *)
  ; mutable fresh : int
  }

let fv st prefix =
  st.fresh <- st.fresh + 1;
  Printf.sprintf "%s%d" prefix st.fresh

let pick st l = List.nth l (Random.State.int st.rng (List.length l))
let int st n = Random.State.int st.rng n

(* Race-free without synchronization: reads/writes only index [t]. *)
let per_thread_stmt st =
  let dst = pick st [ "s1"; "s2" ] in
  let src = pick st [ "s1"; "s2" ] in
  let c = 1 + int st 5 in
  pick st
    [ Printf.sprintf "%s[t] = %s[t] + %d.0f;" dst src c
    ; Printf.sprintf "%s[t] = %s[t] * 0.%df + in[b * %d + t];" dst src c st.t
    ; Printf.sprintf "%s[t] = in[b * %d + t] - %s[t] * 0.5f;" dst st.t src
    ; Printf.sprintf "if (t < %d) { %s[t] = %s[t] + 1.0f; }"
        (1 + int st (st.t - 1))
        dst dst
    ]

(* Rotated read fenced on both sides.  The trailing barrier protects the
   next interval's writes to [src] against this interval's reads — a
   write-after-read dependence, exactly what an over-eager
   redundant-barrier eliminator would drop. *)
let cross_thread_phase st =
  let k = 1 + int st (st.t - 1) in
  let dst, src = if Random.State.bool st.rng then ("s1", "s2") else ("s2", "s1") in
  Printf.sprintf
    "__syncthreads();\n  %s[t] = %s[(t + %d) %% %d] * 0.5f;\n  __syncthreads();"
    dst src k st.t

(* A scalar computed before the barrier and used after it: the splitter
   must carry it across the cut (min-cut picks the crossing values). *)
let live_across_phase st =
  let v = fv st "v" in
  let c = 1 + int st 7 in
  let k = 1 + int st (st.t - 1) in
  Printf.sprintf
    "float %s = s1[t] * 0.%df + s2[t];\n\
    \  __syncthreads();\n\
    \  s2[t] = %s + s1[(t + %d) %% %d] * 0.5f;\n\
    \  __syncthreads();"
    v c v k st.t

(* Serial loop whose body contains barriers: loop interchange must
   distribute the loop around each barrier interval.  Interval 1 reads a
   rotated slot into a private scalar (reads only), interval 2 writes the
   thread's own slot — race-free per interval, racy without the fences.
   The leading barrier fences the first iteration's rotated read against
   the previous phase's (own-slot) writes. *)
let for_barrier_phase st =
  let i = fv st "i" and w = fv st "w" in
  let trips = 1 + int st 3 in
  let k = int st st.t in
  Printf.sprintf
    "__syncthreads();\n\
    \  for (int %s = 0; %s < %d; %s++) {\n\
    \    float %s = s2[(t + %s + %d) %% %d];\n\
    \    __syncthreads();\n\
    \    s2[t] = %s * 0.75f + 1.0f;\n\
    \    __syncthreads();\n\
    \  }"
    i i trips i w i k st.t w

(* While loop with a uniform private condition and barriers in the body:
   interchange of [while] captures the condition once (from thread 0)
   per trip — the thread-0 capture is load-bearing. *)
let while_barrier_phase st =
  let c = fv st "c" in
  let trips = 1 + int st 3 in
  Printf.sprintf
    "int %s = 0;\n\
    \  while (%s < %d) {\n\
    \    s1[t] = s1[t] * 0.5f + s2[t] * 0.25f;\n\
    \    __syncthreads();\n\
    \    s2[t] = s2[t] + s1[(t + 1) %% %d] * 0.125f;\n\
    \    __syncthreads();\n\
    \    %s = %s + 1;\n\
    \  }"
    c c trips st.t c c

(* Guarded single-writer reduction: thread 0 folds the whole array while
   everyone else waits at the fences.  Divergent-looking control flow
   around uniform barriers, and the atomics stand-in. *)
let reduction_phase st =
  let a = fv st "r" and j = fv st "j" in
  let dst, src = if Random.State.bool st.rng then ("s1", "s2") else ("s2", "s1") in
  Printf.sprintf
    "__syncthreads();\n\
    \  if (t == 0) {\n\
    \    float %s = 0.0f;\n\
    \    for (int %s = 0; %s < %d; %s++) { %s = %s + %s[%s]; }\n\
    \    %s[0] = %s[0] * 0.5f + %s * 0.125f;\n\
    \  }\n\
    \  __syncthreads();"
    a j j st.t j a a src j dst dst a

(* Block-uniform branch containing barriers: every thread of a block
   takes the same arm, so the barrier is uniform even though the program
   point is control-dependent. *)
let uniform_if_phase st =
  let k = 1 + int st (st.t - 1) in
  Printf.sprintf
    "if (b %% 2 == 0) {\n\
    \    __syncthreads();\n\
    \    s1[t] = s2[(t + %d) %% %d] * 0.5f + s1[t];\n\
    \    __syncthreads();\n\
    \  }"
    k st.t

(* Plain serial compute loop, occasionally nested — grist for licm,
   mem2reg and the affine passes, no synchronization involved. *)
let serial_loop_phase st =
  let i = fv st "i" in
  let trips = 1 + int st 3 in
  let body = per_thread_stmt st in
  if Random.State.bool st.rng then
    Printf.sprintf "for (int %s = 0; %s < %d; %s++) {\n    %s\n  }" i i trips i
      body
  else begin
    let j = fv st "j" in
    Printf.sprintf
      "for (int %s = 0; %s < %d; %s++) {\n\
      \    for (int %s = 0; %s < 2; %s++) {\n\
      \      %s\n\
      \    }\n\
      \  }"
      i i trips i j j j body
  end

(* Scalar temporaries, the shapes mem2reg turns into scf.if results and
   scf.for iter_args: [&&]/[||] guards and [?:] arms that would fault if
   evaluated eagerly (an index past [in]'s end in the last block, an
   integer division by zero), locals assigned under a condition, and
   accumulators in serial loops — one of them carried through a loop
   that holds barriers (fenced like [for_barrier_phase]) — and lazy
   sides holding a shuffle under a block-uniform condition (their
   barriers keep the value in a scratch slot). *)
let scalar_phase st =
  let t = st.t in
  let k = 1 + int st (t - 1) in
  let c = 1 + int st 7 in
  match int st 7 with
  | 0 ->
    let g = fv st "g" in
    Printf.sprintf
      "float %s = (t + %d < %d && in[b * %d + t + %d] > 0.%df) ? 1.0f : 0.5f;\n\
      \  s1[t] = s1[t] + %s;"
      g k t t k c g
  | 1 ->
    let q = fv st "q" and k0 = int st (t - 1) in
    Printf.sprintf
      "int %s = 0;\n\
      \  if (t <= %d || 12 / (t - %d) > 2) { %s = 1; }\n\
      \  s2[t] = s2[t] * 0.5f + %s;"
      q k0 k0 q q
  | 2 ->
    let v = fv st "v" in
    Printf.sprintf
      "float %s = (t + %d < %d) ? in[b * %d + t + %d] * 0.%df : s2[t];\n\
      \  s1[t] = %s + 1.0f;"
      v k t t k c v
  | 3 ->
    let v = fv st "c" in
    Printf.sprintf
      "float %s = s2[t] * 0.5f;\n\
      \  if (t < %d) { %s = s1[t] + %d.0f; }\n\
      \  s1[t] = %s;"
      v k v c v
  | 4 ->
    let a = fv st "a" and i = fv st "i" in
    Printf.sprintf
      "float %s = 0.0f;\n\
      \  for (int %s = 0; %s < %d; %s++) { %s = %s + in[b * %d + (t + %s) %% %d] * 0.25f; }\n\
      \  s2[t] = s2[t] + %s;"
      a i i (1 + int st 3) i a a t i t a
  | 5 ->
    let w = fv st "w" in
    Printf.sprintf
      "float %s = (b %% 2 == 0) ? __shfl_down_sync(0xffffffff, s1[t], %d) : s2[t];\n\
      \  if (b %% 3 != 1 && __shfl_xor_sync(0xffffffff, %s, 1) > 0.%df) { %s = %s + 1.0f; }\n\
      \  s2[t] = s2[t] * 0.5f + %s;"
      w k w c w w w
  | _ ->
    let a = fv st "a" and i = fv st "i" in
    Printf.sprintf
      "__syncthreads();\n\
      \  float %s = 0.0f;\n\
      \  for (int %s = 0; %s < %d; %s++) {\n\
      \    %s = %s + s2[(t + %s + %d) %% %d] * 0.5f;\n\
      \    __syncthreads();\n\
      \    s2[t] = %s * 0.75f + 1.0f;\n\
      \    __syncthreads();\n\
      \  }\n\
      \  s1[t] = s1[t] + %s;"
      a i i (1 + int st 3) i a a i k t a a

(* Literal-on-literal f32 arithmetic and math, which canonicalization
   folds: f32 literals are rounded and the arithmetic on them is not, so
   a fold must keep the unrounded result.  And a [+ 0.0f] on a value
   that may be -0.0 ([-0.0 + 0.0] is [+0.0]), its sign shown by a
   division. *)
let fold_phase st =
  let v = fv st "f" in
  let c = 1 + int st 9 in
  match int st 3 with
  | 0 -> Printf.sprintf "float %s = 0.%df * 3.0f;\n  s1[t] = s1[t] + %s;" v c v
  | 1 ->
    Printf.sprintf "float %s = sqrtf(%d.0f);\n  s2[t] = s2[t] * 0.5f + %s;" v
      (c + 1) v
  | _ ->
    Printf.sprintf
      "float %s = -(s1[t] * 0.0f) + 0.0f;\n\
      \  s2[t] = s2[t] + (1.0f / %s > 0.0f ? 1.0f : 0.5f);"
      v v

(* What canonicalization's integer range facts decide: a guard exactly
   at or one off the thread extent, division and remainder by 2, 4, 8
   and 3 of a value that may be negative (where a shift or a mask would
   round the other way) or cannot be, and loops that run once — one
   carrying a value — or twice. *)
let range_phase st =
  let t = st.t in
  let dst = pick st [ "s1"; "s2" ] in
  let guard =
    pick st
      [ Printf.sprintf "t < %d" t; Printf.sprintf "t <= %d - 1" t
      ; Printf.sprintf "t < %d - 1" t; Printf.sprintf "t + 1 > %d - 1" t ]
  in
  let x =
    pick st
      [ "t - 3"; Printf.sprintf "t - %d / 2" t; "t"; Printf.sprintf "t + b * %d" t ]
  in
  let d = pick st [ 2; 4; 8; 3 ] and q = fv st "q" in
  let j = fv st "j" in
  let loop =
    match int st 4 with
    | 0 ->
      Printf.sprintf "for (int %s = 2; %s < 3; %s++) { %s[t] = %s[t] * 0.5f + %s; }"
        j j j dst dst j
    | 1 ->
      Printf.sprintf
        "for (int %s = 0; %s < 3; %s += 4) { %s[t] = %s[t] + %s + 1.0f; }" j j j
        dst dst j
    | 2 ->
      let a = fv st "a" in
      Printf.sprintf
        "float %s = s2[t];\n\
        \  for (int %s = 5; %s < 6; %s++) { %s = %s * 0.5f + %s; }\n\
        \  %s[t] = %s[t] + %s;"
        a j j j a a j dst dst a
    | _ ->
      Printf.sprintf "for (int %s = 0; %s < 2; %s++) { %s[t] = %s[t] * 0.5f + %s; }"
        j j j dst dst j
  in
  Printf.sprintf
    "if (%s) { %s[t] = %s[t] + %d.0f; }\n\
    \  int %s = (%s) / %d + 100 * ((%s) %% %d);\n\
    \  %s[t] = %s[t] + %s;\n\
    \  %s"
    guard dst dst (1 + int st 5) q x d x d dst dst q loop

(* Two guards pinning the thread id to different values, with a barrier
   between them: thread [w] writes a slot that thread [r] reads next.
   Two accesses under [t == w] and [t == r] are made by two different
   threads, so the barrier must stay. *)
let pinned_pair_phase st =
  let w = int st st.t in
  let r = (w + 1 + int st (st.t - 1)) mod st.t in
  Printf.sprintf
    "__syncthreads();\n\
    \  if (t == %d) { s1[0] = s1[0] * 0.5f + 3.0f; }\n\
    \  __syncthreads();\n\
    \  if (t == %d) { s2[t] = s2[t] + s1[0]; }\n\
    \  __syncthreads();"
    w r

let phase st =
  match int st 14 with
  | 0 | 1 -> per_thread_stmt st
  | 2 -> cross_thread_phase st
  | 3 | 4 -> live_across_phase st
  | 5 -> for_barrier_phase st
  | 6 -> while_barrier_phase st
  | 7 -> reduction_phase st
  | 8 -> uniform_if_phase st
  | 9 -> serial_loop_phase st
  | 10 -> fold_phase st
  | 11 -> range_phase st
  | 12 -> pinned_pair_phase st
  | _ -> scalar_phase st

(* All start offsets of [needle] in [hay], left to right. *)
let find_all ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i acc =
    if i + nl > hl then List.rev acc
    else if String.equal (String.sub hay i nl) needle then
      go (i + nl) (i :: acc)
    else go (i + 1) acc
  in
  go 0 []

let source ~seed =
  let cfg = cfg_of_seed seed in
  let st =
    { rng = Random.State.make [| 0x5eed; seed |]; t = cfg.threads; fresh = 0 }
  in
  (* burn the draw [cfg_of_seed] made so phases differ across seeds with
     equal thread counts *)
  ignore (Random.State.bool st.rng);
  let n_phases = 3 + int st 4 in
  let phases = List.init n_phases (fun _ -> phase st) in
  Printf.sprintf
    {|
__global__ void k(float* out, float* in) {
  __shared__ float s1[%d];
  __shared__ float s2[%d];
  int t = threadIdx.x;
  int b = blockIdx.x;
  s1[t] = in[b * %d + t];
  s2[t] = in[b * %d + t] * 0.25f;
  __syncthreads();
  %s
  __syncthreads();
  out[b * %d + t] = s1[t] + s2[t];
}
void launch(float* out, float* in) { k<<<%d, %d>>>(out, in); }
|}
    cfg.threads cfg.threads cfg.threads cfg.threads
    (String.concat "\n  " phases)
    cfg.threads blocks cfg.threads

(* --- tensor-shaped programs ([fuzz --gen-tensor]) ---

   The same race-free discipline, but with the dataflow shapes of the
   MocCUDA kernel tier: cooperative-load shared-memory GEMM, its tiled
   form with a ragged k edge, a ring stencil with double buffering, and
   an unrolled tree reduction.
   These stress what the phase mix above cannot: 2D thread blocks with
   partial-tile guards, barrier-separated load/compute epochs, and
   log-depth single-writer fan-in. *)

(* dim3(N, M) block; A (MxK) at in[0], B (KxN) at in[32]; threads with
   tx < K (resp. ty < K) cooperatively stage the tiles, so K <= min(M,N)
   keeps every element covered.  One barrier between load and use. *)
let tensor_gemm rng =
  let m = 3 + Random.State.int rng 3 in
  let n = 3 + Random.State.int rng 3 in
  let k = 2 + Random.State.int rng (min m n - 1) in
  let c = 1 + Random.State.int rng 7 in
  Printf.sprintf
    {|
__global__ void k(float* out, float* in) {
  __shared__ float As[%d][%d];
  __shared__ float Bs[%d][%d];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  if (tx < %d) { As[ty][tx] = in[ty * %d + tx]; }
  if (ty < %d) { Bs[ty][tx] = in[32 + ty * %d + tx]; }
  __syncthreads();
  float acc = 0.0f;
  for (int i = 0; i < %d; i++) {
    acc = acc + As[ty][i] * Bs[i][tx];
  }
  out[ty * %d + tx] = acc * 0.%df;
}
void launch(float* out, float* in) { k<<<1, dim3(%d, %d)>>>(out, in); }
|}
    m k k n k k k n k n c n m

(* The MocCUDA GEMM's tiled form with a ragged k edge: T x T shared
   tiles staged per k tile with guarded loads, and a k loop whose every
   step tests [t * T + kk < K], with K mod T <> 0 (the engine's guarded
   dot loop).  A (MxK) at in[0], B (KxN) at in[32]; M and N are whole
   tiles. *)
let tensor_ragged_gemm rng =
  let t = if Random.State.bool rng then 2 else 4 in
  let k =
    let k = t + 1 + Random.State.int rng (if t = 2 then 5 else 3) in
    if k mod t = 0 then k + 1 else k
  in
  let bm = if t = 2 then 1 + Random.State.int rng 2 else 1 in
  let bn = if t = 2 then 1 + Random.State.int rng 2 else 1 in
  let n = bn * t in
  let c = 1 + Random.State.int rng 7 in
  Printf.sprintf
    {|
__global__ void k(float* out, float* in) {
  __shared__ float As[%d][%d];
  __shared__ float Bs[%d][%d];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int row = blockIdx.y * %d + ty;
  int col = blockIdx.x * %d + tx;
  float acc = 0.0f;
  for (int t = 0; t < %d; t++) {
    float av = 0.0f;
    if (t * %d + tx < %d) { av = in[row * %d + t * %d + tx]; }
    As[ty][tx] = av;
    float bv = 0.0f;
    if (t * %d + ty < %d) { bv = in[32 + (t * %d + ty) * %d + col]; }
    Bs[ty][tx] = bv;
    __syncthreads();
    for (int kk = 0; kk < %d; kk++) {
      if (t * %d + kk < %d) { acc = acc + As[ty][kk] * Bs[kk][tx]; }
    }
    __syncthreads();
  }
  out[row * %d + col] = acc * 0.%df;
}
void launch(float* out, float* in) { k<<<dim3(%d, %d), dim3(%d, %d)>>>(out, in); }
|}
    t t t t t t
    ((k + t - 1) / t)
    t k k t t k t n t t k n c bn bm t t

(* Ring stencil with double buffering: rotated reads and own-slot
   writes alternate across the fences, [iters] trips of the
   barrier-carrying loop. *)
let tensor_stencil rng =
  let t = if Random.State.bool rng then 8 else 16 in
  let iters = 2 + Random.State.int rng 3 in
  let c = 1 + Random.State.int rng 7 in
  Printf.sprintf
    {|
__global__ void k(float* out, float* in) {
  __shared__ float s[%d];
  __shared__ float d[%d];
  int t = threadIdx.x;
  int b = blockIdx.x;
  s[t] = in[b * %d + t];
  __syncthreads();
  for (int i = 0; i < %d; i++) {
    d[t] = (s[(t + 1) %% %d] + s[(t + %d) %% %d]) * 0.25f + s[t] * 0.%df;
    __syncthreads();
    s[t] = d[t];
    __syncthreads();
  }
  out[b * %d + t] = s[t];
}
void launch(float* out, float* in) { k<<<2, %d>>>(out, in); }
|}
    t t t iters t (t - 1) t c t t

(* Tree reduction, unrolled level by level (the strides are compile-time
   constants): each fenced interval has a single writer per slot, and
   every thread reads the root after the last fence. *)
let tensor_reduction rng =
  let t = if Random.State.bool rng then 4 else 8 in
  let c = 1 + Random.State.int rng 7 in
  let levels =
    let rec go stride acc =
      if stride = 0 then List.rev acc
      else
        go (stride / 2)
          (Printf.sprintf
             "if (t < %d) { s[t] = s[t] + s[t + %d]; }\n  __syncthreads();"
             stride stride
           :: acc)
    in
    go (t / 2) []
  in
  Printf.sprintf
    {|
__global__ void k(float* out, float* in) {
  __shared__ float s[%d];
  int t = threadIdx.x;
  int b = blockIdx.x;
  s[t] = in[b * %d + t];
  __syncthreads();
  %s
  out[b * %d + t] = s[0] * 0.%df + in[b * %d + t] * 0.5f;
}
void launch(float* out, float* in) { k<<<2, %d>>>(out, in); }
|}
    t t
    (String.concat "\n  " levels)
    t c t t

(* The GEMM's reduction straight from global memory, one thread per
   output: A (MxK) at in[0], B (KxN) at in[32].  Its loop body keeps an
   index chain per load for the engine to fold into the fused dot loop. *)
let tensor_dot rng =
  let m = 2 + Random.State.int rng 3 in
  let n = 2 + Random.State.int rng 3 in
  let k = 2 + Random.State.int rng 4 in
  let c = 1 + Random.State.int rng 7 in
  Printf.sprintf
    {|
__global__ void k(float* out, float* in) {
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  float acc = 0.0f;
  for (int i = 0; i < %d; i++) {
    acc = acc + in[ty * %d + i] * in[32 + i * %d + tx];
  }
  out[ty * %d + tx] = acc * 0.%df;
}
void launch(float* out, float* in) { k<<<1, dim3(%d, %d)>>>(out, in); }
|}
    k k n n c n m

let tensor_source ~seed =
  let rng = Random.State.make [| 0x7e45; seed |] in
  match Random.State.int rng 5 with
  | 0 -> tensor_gemm rng
  | 1 -> tensor_stencil rng
  | 2 -> tensor_reduction rng
  | 3 -> tensor_ragged_gemm rng
  | _ -> tensor_dot rng

(* A racy mutant of [source ~seed]: the same program with one
   [__syncthreads] deleted, chosen by the seed.  Since every generated
   program is race-free exactly BECAUSE of its fences, dropping one
   usually — not always (some fences are redundant for the phases that
   happened to be drawn) — introduces a real cross-thread race whose
   known-good minimal repair is re-inserting the deleted barrier.  The
   repair campaign keeps only the mutants the sanitizer flags. *)
let racy_source ~seed =
  let src = source ~seed in
  let needle = "__syncthreads();" in
  match find_all ~needle src with
  | [] -> src
  | occs ->
    let rng = Random.State.make [| 0xbad; seed |] in
    let at = List.nth occs (Random.State.int rng (List.length occs)) in
    String.sub src 0 at
    ^ String.sub src
        (at + String.length needle)
        (String.length src - at - String.length needle)
