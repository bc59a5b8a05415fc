(* The four PyTorch execution backends the paper compares on Fig. 15:


   - [Native]: PyTorch's default CPU backend — naive six-loop
     convolution, scalar kernels.
   - [One_dnn]: the (Fujitsu-tuned) oneDNN library — vectorized direct
     convolution blocked for commodity cache hierarchies; its access
     pattern cannot exploit the A64FX's HBM.
   - [Moccuda_expert]: MocCUDA with the hand-written OpenMP kernels —
     im2col + GEMM convolutions, HBM-friendly streaming.
   - [Moccuda_polygeist]: the same, but the custom PyTorch CUDA kernels
     (the NLL criterion) are transpiled automatically by the Polygeist
     pipeline instead of hand-ported; a small launch overhead accounts
     for the extra fissioned regions.  The transpiled NLL itself runs in
     the compiled tier ([Graph.nll_loss] through a [Kmgr]), bit for bit
     equal to the [Layers.nll_loss] that [Resnet.mini_forward] computes
     under every backend. *)

open Tensorlib

type t =
  | Native
  | One_dnn
  | Moccuda_expert
  | Moccuda_polygeist

let name = function
  | Native -> "native"
  | One_dnn -> "oneDNN"
  | Moccuda_expert -> "MocCUDA+Expert"
  | Moccuda_polygeist -> "MocCUDA+Polygeist"

let all = [ Native; One_dnn; Moccuda_expert; Moccuda_polygeist ]

(* --- computation (all backends agree numerically; differential tests
   rely on this) --- *)

let conv2d (backend : t) ~(input : Tensor.t) ~(weight : Tensor.t)
    ~(p : Conv.params) : Tensor.t =
  match backend with
  | Native -> Conv.naive ~input ~weight ~p
  | One_dnn -> Conv.direct ~input ~weight ~p
  | Moccuda_expert | Moccuda_polygeist -> Conv.im2col_gemm ~input ~weight ~p

(* --- cost --- *)

let conv2d_cost (backend : t) (machine : Runtime.Machine.t)
    (sh : Conv.shape) : Opcost.t =
  match backend with
  | Native -> Conv.cost_naive sh
  | One_dnn -> Conv.cost_direct machine sh
  | Moccuda_expert -> Conv.cost_im2col_gemm sh
  | Moccuda_polygeist ->
    let c = Conv.cost_im2col_gemm sh in
    { c with Opcost.launches = c.Opcost.launches + 1 }
