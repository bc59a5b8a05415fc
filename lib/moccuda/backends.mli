(** The four PyTorch execution backends of Fig. 15: the native CPU
    fallback, (Fujitsu-tuned) oneDNN, and MocCUDA with expert-written or
    Polygeist-transpiled kernels.  All backends agree numerically; they
    differ in the algorithm (direct vs. im2col+GEMM convolution) and in
    the cost descriptors the machine model turns into throughput.
    Polygeist's transpiled NLL kernel runs in the compiled tier
    ({!Graph.nll_loss}). *)

type t =
  | Native
  | One_dnn
  | Moccuda_expert
  | Moccuda_polygeist

val name : t -> string
val all : t list

val conv2d :
  t ->
  input:Tensorlib.Tensor.t ->
  weight:Tensorlib.Tensor.t ->
  p:Tensorlib.Conv.params ->
  Tensorlib.Tensor.t

val conv2d_cost :
  t -> Runtime.Machine.t -> Tensorlib.Conv.shape -> Tensorlib.Opcost.t
