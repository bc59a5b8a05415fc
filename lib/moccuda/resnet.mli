(** ResNet-50 structure (53 convolutions at 224x224) and the Fig. 15
    synthetic-training throughput harness, plus a miniature functional
    model used for backend-agreement tests. *)

type conv_layer =
  { c_in : int
  ; c_out : int
  ; ksize : int
  ; stride : int
  ; hw : int
  }

val conv_layers : conv_layer list
val n_convs : int

(** Images per second of synthetic training (the Benchmarker metric). *)
val throughput :
  Backends.t -> Runtime.Machine.t -> batch:int -> threads:int -> float

type mini_model =
  { stem_w : Tensorlib.Tensor.t
  ; block_w1 : Tensorlib.Tensor.t
  ; block_w2 : Tensorlib.Tensor.t
  ; fc_w : Tensorlib.Tensor.t
  }

val mini_model : channels:int -> mini_model

(** Forward pass of the miniature network; returns the NLL loss. *)
val mini_forward :
  Backends.t ->
  mini_model ->
  images:Tensorlib.Tensor.t ->
  targets:int array ->
  float

(** The miniature network with every op lowered to a transpiled kernel:
    a {!Graph} built once, weights converted to buffers once. *)
type compiled_mini

val mini_compiled : mini_model -> batch:int -> hw:int -> compiled_mini

(** Analytic cost of one forward pass of the compiled graph. *)
val mini_cost : compiled_mini -> Tensorlib.Opcost.t

(** One forward pass through the kernel tier; returns the NLL loss.
    Warm calls hit the kernel cache (zero recompiles) and the arena
    pool (zero tensor allocations). *)
val run_mini_compiled :
  compiled_mini ->
  Kmgr.t ->
  Arena.t ->
  images:Interp.Mem.buffer ->
  targets:Interp.Mem.buffer ->
  float

(** One convolution of the real ResNet-50 table run through the kernel
    tier, with the Tensorlib reference checksum alongside. *)
type layer_run =
  { lr_shape : Tensorlib.Conv.shape
  ; lr_checksum : float
  ; lr_ref_checksum : float
  ; lr_secs : float
  }

(** Caps on a swept layer's spatial size (8) and on its input and
    output channels (16), so the compiled engine finishes in test
    time. *)
val hw_cap : int

val channel_cap : int

(** Run one layer of {!conv_layers}, its dims capped at {!hw_cap} and
    {!channel_cap}. *)
val run_conv_layer :
  Kmgr.t ->
  Arena.t ->
  batch:int ->
  conv_layer ->
  layer_run
