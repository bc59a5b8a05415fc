(* The MocCUDA kernel library (Sec. V-B): every tensor op of the
   mini-PyTorch inference path as a mini-CUDA kernel source, compiled
   through the full frontend -> Cpuify -> OpenMP -> Exec stack by
   {!Kmgr} — not hand-written OCaml.

   Shapes are baked into each source as integer literals (the
   [Rodinia.Matmul] idiom): the affine passes see constant loop bounds,
   and the (op, shape) pair becomes the kernel cache key.  Literal
   shapes also let canonicalization's integer range facts prove the
   edge guards of tile-aligned shapes true — GEMM's row, column and k
   tests when M, N and K are multiples of the tile, an elementwise
   kernel's [idx < total] when the total is a multiple of the block —
   so those lowerings keep no guard.

   Numerics contract: every kernel is written in [double] with
   unsuffixed float constants.  The interpreter and the compiled engine
   do all float arithmetic in double precision and round only at f32
   constants and casts-to-f32, so a kernel whose per-element
   accumulation order matches the [Tensorlib] reference is bit-identical
   to it — the differential tests compare [Interp.Mem.checksum]s, not
   tolerances.  Concretely: GEMM/linear/conv accumulate k in ascending
   order from 0.0 (as [Gemm.naive]/[Gemm.blocked] do), pooling and
   softmax fold [fmax]/sums in the reference's index order, and the NLL
   fold is a single-thread ordered sum. *)

open Tensorlib

type t =
  { name : string (* op name, the human half of the cache key *)
  ; shape : int list (* baked-in shape parameters, the other half *)
  ; src : string
  ; entry : string (* host entry point, always [run] *)
  }

let block = 64
let tile = 8

let mk name shape src = { name; shape; src; entry = "run" }

(* Grid size for one thread per element at [block] threads per block. *)
let grid total = (total + block - 1) / block

(* --- GEMM: C(mxn) = A(mxk) * B(kxn) ---

   The flagship barrier kernel: 8x8 tiles staged through shared memory
   with two __syncthreads per tile step (the canonical pattern the
   min-cut splitter and interchange must lower).  Ragged edges are
   handled by guarded loads plus a uniform in-range test on the
   accumulation step, so the products folded into [acc] are exactly the
   reference's — k ascending, nothing else — and the result is bitwise
   [Gemm.naive]. *)
let gemm ~(m : int) ~(n : int) ~(k : int) : t =
  let kt = (k + tile - 1) / tile in
  let src =
    Printf.sprintf
      {|
__global__ void gemm(double* C, double* A, double* B) {
  __shared__ double As[%d][%d];
  __shared__ double Bs[%d][%d];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  int row = blockIdx.y * %d + ty;
  int col = blockIdx.x * %d + tx;
  double acc = 0.0;
  for (int t = 0; t < %d; t++) {
    double av = 0.0;
    if (row < %d && t * %d + tx < %d) { av = A[row * %d + t * %d + tx]; }
    As[ty][tx] = av;
    double bv = 0.0;
    if (t * %d + ty < %d && col < %d) { bv = B[(t * %d + ty) * %d + col]; }
    Bs[ty][tx] = bv;
    __syncthreads();
    for (int kk = 0; kk < %d; kk++) {
      if (t * %d + kk < %d) { acc = acc + As[ty][kk] * Bs[kk][tx]; }
    }
    __syncthreads();
  }
  if (row < %d && col < %d) { C[row * %d + col] = acc; }
}
void run(double* C, double* A, double* B) {
  gemm<<<dim3(%d, %d), dim3(%d, %d)>>>(C, A, B);
}
|}
      tile tile tile tile tile tile kt m tile k k tile tile k n tile n tile
      tile k m n n
      ((n + tile - 1) / tile)
      ((m + tile - 1) / tile)
      tile tile
  in
  mk "gemm" [ m; n; k ] src

(* --- im2col: patch matrix (C*R*S) x (N*OH*OW), zero-padded --- *)
let im2col (sh : Conv.shape) : t =
  let oh, ow = Conv.out_dims sh in
  let rows = sh.Conv.c * sh.Conv.r * sh.Conv.s in
  let cols = sh.Conv.n * oh * ow in
  let total = rows * cols in
  let src =
    Printf.sprintf
      {|
__global__ void im2col(double* P, double* X) {
  int idx = blockIdx.x * %d + threadIdx.x;
  if (idx < %d) {
    int col = idx %% %d;
    int row = idx / %d;
    int s = row %% %d;
    int r = (row / %d) %% %d;
    int c = row / %d;
    int x = col %% %d;
    int y = (col / %d) %% %d;
    int n = col / %d;
    int iy = y * %d + r - %d;
    int ix = x * %d + s - %d;
    double v = 0.0;
    if (iy >= 0 && iy < %d && ix >= 0 && ix < %d) {
      v = X[((n * %d + c) * %d + iy) * %d + ix];
    }
    P[idx] = v;
  }
}
void run(double* P, double* X) { im2col<<<%d, %d>>>(P, X); }
|}
      block total cols cols sh.Conv.s sh.Conv.s sh.Conv.r
      (sh.Conv.s * sh.Conv.r) ow ow oh (ow * oh) sh.Conv.p.Conv.stride
      sh.Conv.p.Conv.pad sh.Conv.p.Conv.stride sh.Conv.p.Conv.pad sh.Conv.h
      sh.Conv.w sh.Conv.c sh.Conv.h sh.Conv.w (grid total) block
  in
  mk "im2col"
    [ sh.Conv.n; sh.Conv.c; sh.Conv.h; sh.Conv.w; sh.Conv.r; sh.Conv.s
    ; sh.Conv.p.Conv.stride; sh.Conv.p.Conv.pad
    ]
    src

(* --- reshape the GEMM result K x (N*OH*OW) into NCHW (a pure copy) --- *)
let col2im ~(n : int) ~(k : int) ~(oh : int) ~(ow : int) : t =
  let total = n * k * oh * ow in
  let cols = n * oh * ow in
  let src =
    Printf.sprintf
      {|
__global__ void col2im(double* Y, double* G) {
  int idx = blockIdx.x * %d + threadIdx.x;
  if (idx < %d) {
    int x = idx %% %d;
    int y = (idx / %d) %% %d;
    int k = (idx / %d) %% %d;
    int n = idx / %d;
    Y[idx] = G[k * %d + (n * %d + y) * %d + x];
  }
}
void run(double* Y, double* G) { col2im<<<%d, %d>>>(Y, G); }
|}
      block total ow ow oh (ow * oh) k (ow * oh * k) cols oh ow (grid total)
      block
  in
  mk "col2im" [ n; k; oh; ow ] src

(* --- elementwise ReLU --- *)
let relu ~(numel : int) : t =
  let src =
    Printf.sprintf
      {|
__global__ void relu(double* Y, double* X) {
  int idx = blockIdx.x * %d + threadIdx.x;
  if (idx < %d) {
    double v = X[idx];
    Y[idx] = v > 0.0 ? v : 0.0;
  }
}
void run(double* Y, double* X) { relu<<<%d, %d>>>(Y, X); }
|}
      block numel (grid numel) block
  in
  mk "relu" [ numel ] src

(* --- fused bias + ReLU (per-channel bias over NCHW) --- *)
let bias_relu ~(numel : int) ~(c : int) ~(hw : int) : t =
  let src =
    Printf.sprintf
      {|
__global__ void bias_relu(double* Y, double* X, double* B) {
  int idx = blockIdx.x * %d + threadIdx.x;
  if (idx < %d) {
    double v = X[idx] + B[(idx / %d) %% %d];
    Y[idx] = v > 0.0 ? v : 0.0;
  }
}
void run(double* Y, double* X, double* B) { bias_relu<<<%d, %d>>>(Y, X, B); }
|}
      block numel hw c (grid numel) block
  in
  mk "bias_relu" [ numel; c; hw ] src

(* --- elementwise add (the residual connection) --- *)
let add ~(numel : int) : t =
  let src =
    Printf.sprintf
      {|
__global__ void add(double* Y, double* A, double* B) {
  int idx = blockIdx.x * %d + threadIdx.x;
  if (idx < %d) { Y[idx] = A[idx] + B[idx]; }
}
void run(double* Y, double* A, double* B) { add<<<%d, %d>>>(Y, A, B); }
|}
      block numel (grid numel) block
  in
  mk "add" [ numel ] src

(* --- max pooling (one thread per output element; fmax fold in the
   reference's dy, dx order, seeded with the window's first element) --- *)
let maxpool ~(n : int) ~(c : int) ~(h : int) ~(w : int) ~(size : int)
    ~(stride : int) : t =
  let oh = ((h - size) / stride) + 1 and ow = ((w - size) / stride) + 1 in
  let total = n * c * oh * ow in
  let src =
    Printf.sprintf
      {|
__global__ void maxpool(double* Y, double* X) {
  int idx = blockIdx.x * %d + threadIdx.x;
  if (idx < %d) {
    int x = idx %% %d;
    int y = (idx / %d) %% %d;
    int c = (idx / %d) %% %d;
    int n = idx / %d;
    double m = X[((n * %d + c) * %d + y * %d) * %d + x * %d];
    for (int dy = 0; dy < %d; dy++) {
      for (int dx = 0; dx < %d; dx++) {
        double v = X[((n * %d + c) * %d + y * %d + dy) * %d + x * %d + dx];
        m = fmax(m, v);
      }
    }
    Y[idx] = m;
  }
}
void run(double* Y, double* X) { maxpool<<<%d, %d>>>(Y, X); }
|}
      block total ow ow oh (ow * oh) c (ow * oh * c) c h stride w stride size
      size c h stride w stride (grid total) block
  in
  mk "maxpool" [ n; c; h; w; size; stride ] src

(* --- global average pooling NCHW -> NC (ordered per-row sum) --- *)
let avgpool_global ~(n : int) ~(c : int) ~(hw : int) : t =
  let total = n * c in
  let src =
    Printf.sprintf
      {|
__global__ void avgpool(double* Y, double* X) {
  int idx = blockIdx.x * %d + threadIdx.x;
  if (idx < %d) {
    double acc = 0.0;
    for (int i = 0; i < %d; i++) { acc = acc + X[idx * %d + i]; }
    Y[idx] = acc / %d.0;
  }
}
void run(double* Y, double* X) { avgpool<<<%d, %d>>>(Y, X); }
|}
      block total hw hw hw (grid total) block
  in
  mk "avgpool_global" [ n; c; hw ] src

(* --- batch normalization, inference form --- *)
let batchnorm ~(numel : int) ~(c : int) ~(hw : int) : t =
  let src =
    Printf.sprintf
      {|
__global__ void batchnorm(double* Y, double* X, double* G, double* B,
                          double* M, double* V) {
  int idx = blockIdx.x * %d + threadIdx.x;
  if (idx < %d) {
    int c = (idx / %d) %% %d;
    double scale = G[c] / sqrt(V[c] + 0.00001);
    double shift = B[c] - scale * M[c];
    Y[idx] = scale * X[idx] + shift;
  }
}
void run(double* Y, double* X, double* G, double* B, double* M, double* V) {
  batchnorm<<<%d, %d>>>(Y, X, G, B, M, V);
}
|}
      block numel hw c (grid numel) block
  in
  mk "batchnorm" [ numel; c; hw ] src

(* --- linear: out(n x o) = t(n x f) * w(o x f)^T --- *)
let linear ~(n : int) ~(infeat : int) ~(outfeat : int) : t =
  let total = n * outfeat in
  let src =
    Printf.sprintf
      {|
__global__ void linear(double* Y, double* T, double* W) {
  int idx = blockIdx.x * %d + threadIdx.x;
  if (idx < %d) {
    int oi = idx %% %d;
    int ni = idx / %d;
    double acc = 0.0;
    for (int k = 0; k < %d; k++) {
      acc = acc + T[ni * %d + k] * W[oi * %d + k];
    }
    Y[idx] = acc;
  }
}
void run(double* Y, double* T, double* W) { linear<<<%d, %d>>>(Y, T, W); }
|}
      block total outfeat outfeat infeat infeat infeat (grid total) block
  in
  mk "linear" [ n; infeat; outfeat ] src

(* --- row softmax (one thread per row, the reference's three passes) --- *)
let softmax ~(rows : int) ~(cols : int) : t =
  let src =
    Printf.sprintf
      {|
__global__ void softmax(double* Y, double* X) {
  int i = blockIdx.x * %d + threadIdx.x;
  if (i < %d) {
    double m = X[i * %d];
    for (int j = 1; j < %d; j++) { m = fmax(m, X[i * %d + j]); }
    double z = 0.0;
    for (int j = 0; j < %d; j++) { z = z + exp(X[i * %d + j] - m); }
    for (int j = 0; j < %d; j++) {
      Y[i * %d + j] = exp(X[i * %d + j] - m) / z;
    }
  }
}
void run(double* Y, double* X) { softmax<<<%d, %d>>>(Y, X); }
|}
      block rows cols cols cols cols cols cols cols cols (grid rows) block
  in
  mk "softmax" [ rows; cols ] src

(* --- elementwise log (between softmax and the NLL criterion) --- *)
let logk ~(numel : int) : t =
  let src =
    Printf.sprintf
      {|
__global__ void logk(double* Y, double* X) {
  int idx = blockIdx.x * %d + threadIdx.x;
  if (idx < %d) { Y[idx] = log(X[idx]); }
}
void run(double* Y, double* X) { logk<<<%d, %d>>>(Y, X); }
|}
      block numel (grid numel) block
  in
  mk "log" [ numel ] src

(* --- NLL loss: parallel per-sample pick, then a single-thread ordered
   fold (two launches from one host entry), matching the reference's
   accumulation order exactly --- *)
let nll ~(n : int) ~(classes : int) : t =
  let src =
    Printf.sprintf
      {|
__global__ void nll_pick(double* per, double* LP, int* tg) {
  int i = blockIdx.x * %d + threadIdx.x;
  if (i < %d) { per[i] = 0.0 - LP[i * %d + tg[i]]; }
}
__global__ void nll_fold(double* loss, double* per) {
  int i = threadIdx.x;
  if (i == 0) {
    double acc = 0.0;
    for (int j = 0; j < %d; j++) { acc = acc + per[j]; }
    loss[0] = acc / %d.0;
  }
}
void run(double* loss, double* per, double* LP, int* tg) {
  nll_pick<<<%d, %d>>>(per, LP, tg);
  nll_fold<<<1, 1>>>(loss, per);
}
|}
      block n classes n n (grid n) block
  in
  mk "nll" [ n; classes ] src
