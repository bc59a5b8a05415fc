(** A small static dataflow graph over the {!Kernels} op set.

    Nodes are appended in execution order.  Each constructor infers the
    node's shape (rejecting a mismatch with [Invalid_argument]) and
    fixes its launch plan once: the kernels it launches, their arguments
    and its scratch buffers.  {!run} executes the plans against a
    {!Kmgr}, grabbing every output and scratch buffer from an {!Arena} —
    each op runs as a transpiled mini-CUDA kernel through the full
    pipeline.  The graph also accumulates the analytic
    {!Tensorlib.Opcost} of its ops. *)

open Tensorlib

type t

(** A value in the graph: an input or a node output. *)
type vid

val create : unit -> t

(** Analytic cost of every node added so far. *)
val cost : t -> Opcost.t

(** {1 Construction}

    All constructors raise [Invalid_argument "graph: ..."] on shape
    mismatch. *)

(** A float tensor input of the given shape. *)
val input : t -> int array -> vid

(** An integer input of [len] elements (class targets). *)
val input_int : t -> int -> vid

(** NCHW convolution (im2col + GEMM + reshape, three kernel launches). *)
val conv2d : t -> input:vid -> weight:vid -> p:Conv.params -> vid

val relu : t -> vid -> vid

(** Per-channel bias add fused with ReLU on an NCHW tensor. *)
val bias_relu : t -> input:vid -> bias:vid -> vid

(** Elementwise sum of two same-sized tensors (residual join). *)
val add : t -> vid -> vid -> vid

val maxpool : t -> size:int -> stride:int -> vid -> vid

(** NCHW -> NC mean over the spatial dims. *)
val global_avgpool : t -> vid -> vid

(** Inference batchnorm from per-channel gamma/beta/mean/var. *)
val batchnorm :
  t -> input:vid -> gamma:vid -> beta:vid -> mean:vid -> var:vid -> vid

(** [N x IN] by [OUT x IN] weight -> [N x OUT]. *)
val linear : t -> input:vid -> weight:vid -> vid

(** Row-wise max-subtracted softmax on a rank-2 tensor. *)
val softmax : t -> vid -> vid

(** Elementwise natural log. *)
val log_ : t -> vid -> vid

(** Mean negative log-likelihood of [log_probs] (rank-2) at integer
    [targets]; yields a single-element value. *)
val nll_loss : t -> log_probs:vid -> targets:vid -> vid

(** {1 Feeds}

    The executor works on rank-1 buffers; these convert [Tensorlib]
    values and plain arrays to them. *)

val buffer_of_tensor : Tensor.t -> Interp.Mem.buffer
val buffer_of_ints : int array -> Interp.Mem.buffer

(** {1 Execution} *)

(** [run g km arena ~feeds outs] launches every node's kernels in order
    and returns the buffers of [outs].  Returned buffers live in the
    arena: copy results out before [Arena.reset]. *)
val run :
  t ->
  Kmgr.t ->
  Arena.t ->
  feeds:(vid * Interp.Mem.buffer) list ->
  vid list ->
  Interp.Mem.buffer list
