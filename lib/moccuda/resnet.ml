(* ResNet-50 model structure (He et al. 2016) and the synthetic training
   throughput harness — the paper's Fig. 15 workload (Horovod synthetic
   benchmark, 224x224 ImageNet-shaped inputs, forward + backward).


   The layer table below is the standard ResNet-50: a 7x7/2 stem, four
   bottleneck stages of [1x1, 3x3, 1x1] blocks (3, 4, 6, 3 of them) with
   1x1 downsampling projections, global pooling and a 1000-way FC. *)

open Tensorlib

type conv_layer =
  { c_in : int
  ; c_out : int
  ; ksize : int
  ; stride : int
  ; hw : int (* input spatial size *)
  }

let bottleneck ~(cin : int) ~(mid : int) ~(cout : int) ~(hw : int)
    ~(stride : int) ~(first : bool) : conv_layer list =
  [ { c_in = cin; c_out = mid; ksize = 1; stride = 1; hw }
  ; { c_in = mid; c_out = mid; ksize = 3; stride; hw }
  ; { c_in = mid; c_out = cout; ksize = 1; stride = 1; hw = hw / stride }
  ]
  @ (if first then
       [ { c_in = cin; c_out = cout; ksize = 1; stride; hw } ]
     else [])

let stage ~(blocks : int) ~(cin : int) ~(mid : int) ~(cout : int)
    ~(hw : int) ~(stride : int) : conv_layer list =
  List.concat
    (List.init blocks (fun i ->
         if i = 0 then bottleneck ~cin ~mid ~cout ~hw ~stride ~first:true
         else bottleneck ~cin:cout ~mid ~cout ~hw:(hw / stride) ~stride:1
                ~first:false))

(* All convolutions of ResNet-50 at 224x224. *)
let conv_layers : conv_layer list =
  ({ c_in = 3; c_out = 64; ksize = 7; stride = 2; hw = 224 }
   :: stage ~blocks:3 ~cin:64 ~mid:64 ~cout:256 ~hw:56 ~stride:1)
  @ stage ~blocks:4 ~cin:256 ~mid:128 ~cout:512 ~hw:56 ~stride:2
  @ stage ~blocks:6 ~cin:512 ~mid:256 ~cout:1024 ~hw:28 ~stride:2
  @ stage ~blocks:3 ~cin:1024 ~mid:512 ~cout:2048 ~hw:14 ~stride:2

let n_convs = List.length conv_layers

let conv_shape ~(batch : int) (l : conv_layer) : Conv.shape =
  { Conv.n = batch
  ; c = l.c_in
  ; h = l.hw
  ; w = l.hw
  ; k = l.c_out
  ; r = l.ksize
  ; s = l.ksize
  ; p = { Conv.stride = l.stride; pad = l.ksize / 2 }
  }

(* Total simulated cost of one training step (forward + backward) of
   ResNet-50 with the given backend. *)
let step_cost (backend : Backends.t) (machine : Runtime.Machine.t)
    ~(batch : int) : Opcost.t =
  let conv_cost =
    List.fold_left
      (fun acc l ->
        let sh = conv_shape ~batch l in
        let fwd = Backends.conv2d_cost backend machine sh in
        let bwd = Conv.cost_backward fwd in
        Opcost.(acc ++ fwd ++ bwd))
      Opcost.zero conv_layers
  in
  (* batchnorm + relu after each conv (fwd+bwd ~ 2x) *)
  let act_cost =
    List.fold_left
      (fun acc l ->
        let oh = l.hw / l.stride in
        let numel = batch * l.c_out * oh * oh in
        let base = Opcost.(Layers.cost_batchnorm numel ++ Layers.cost_relu numel) in
        let base =
          match backend with
          | Backends.Native ->
            (* the native backend's elementwise kernels are scalar *)
            Opcost.scalarize base
          | _ -> base
        in
        Opcost.(acc ++ base ++ base))
      Opcost.zero conv_layers
  in
  let head =
    Opcost.(
      Layers.cost_maxpool ~size:3 (batch * 64 * 56 * 56)
      ++ Layers.cost_linear ~n:batch ~infeat:2048 ~outfeat:1000
      ++ Layers.cost_softmax (batch * 1000)
      ++ Layers.cost_nll batch)
  in
  Opcost.(conv_cost ++ act_cost ++ head)

(* Images per second of synthetic training (the Benchmarker metric). *)
let throughput (backend : Backends.t) (machine : Runtime.Machine.t)
    ~(batch : int) ~(threads : int) : float =
  let cost = step_cost backend machine ~batch in
  let secs = Opcost.seconds machine ~threads cost in
  float_of_int batch /. secs

(* --- a small functional model for correctness tests: a stem conv +
   bottleneck + classifier computed with real tensors --- *)

type mini_model =
  { stem_w : Tensor.t
  ; block_w1 : Tensor.t
  ; block_w2 : Tensor.t
  ; fc_w : Tensor.t
  }

let mini_model ~(channels : int) : mini_model =
  { stem_w = Tensor.rand 1 [| channels; 3; 3; 3 |]
  ; block_w1 = Tensor.rand 2 [| channels; channels; 3; 3 |]
  ; block_w2 = Tensor.rand 3 [| channels; channels; 3; 3 |]
  ; fc_w = Tensor.rand 4 [| 10; channels |]
  }

(* Forward pass of the miniature network under a backend; ends with
   softmax + NLL against the given targets. *)
let mini_forward (backend : Backends.t) (m : mini_model)
    ~(images : Tensor.t) ~(targets : int array) : float =
  let p = { Conv.stride = 1; pad = 1 } in
  let x = Backends.conv2d backend ~input:images ~weight:m.stem_w ~p in
  let x = Layers.relu x in
  let y = Backends.conv2d backend ~input:x ~weight:m.block_w1 ~p in
  let y = Layers.relu y in
  let y = Backends.conv2d backend ~input:y ~weight:m.block_w2 ~p in
  Tensor.add_inplace y x;
  let y = Layers.relu y in
  (* global average pool *)
  let n = y.Tensor.shape.(0) and c = y.Tensor.shape.(1) in
  let hw = y.Tensor.shape.(2) * y.Tensor.shape.(3) in
  let pooled = Tensor.create [| n; c |] in
  for ni = 0 to n - 1 do
    for ci = 0 to c - 1 do
      let acc = ref 0.0 in
      for i = 0 to hw - 1 do
        acc := !acc +. y.Tensor.data.((((ni * c) + ci) * hw) + i)
      done;
      Tensor.set2 pooled ni ci (!acc /. float_of_int hw)
    done
  done;
  let logits = Layers.linear ~weight:m.fc_w pooled in
  let probs = Layers.softmax logits in
  let log_probs =
    Tensor.of_array (Array.copy probs.Tensor.shape)
      (Array.map log probs.Tensor.data)
  in
  Layers.nll_loss ~log_probs ~targets

(* --- the same miniature network with every op a transpiled kernel:
   built once as a graph, weights converted to buffers once, so warm
   passes touch neither the compiler nor the allocator --- *)

type compiled_mini =
  { cm_graph : Graph.t
  ; cm_images : Graph.vid
  ; cm_targets : Graph.vid
  ; cm_loss : Graph.vid
  ; cm_feeds : (Graph.vid * Interp.Mem.buffer) list
  }

let mini_compiled (m : mini_model) ~(batch : int) ~(hw : int) : compiled_mini
  =
  let g = Graph.create () in
  let images = Graph.input g [| batch; 3; hw; hw |] in
  let targets = Graph.input_int g batch in
  let weight t = (Graph.input g t.Tensor.shape, Graph.buffer_of_tensor t) in
  let stem_v, stem_b = weight m.stem_w in
  let w1_v, w1_b = weight m.block_w1 in
  let w2_v, w2_b = weight m.block_w2 in
  let fc_v, fc_b = weight m.fc_w in
  let p = { Conv.stride = 1; pad = 1 } in
  let x = Graph.relu g (Graph.conv2d g ~input:images ~weight:stem_v ~p) in
  let y = Graph.relu g (Graph.conv2d g ~input:x ~weight:w1_v ~p) in
  let y = Graph.conv2d g ~input:y ~weight:w2_v ~p in
  let y = Graph.relu g (Graph.add g y x) in
  let pooled = Graph.global_avgpool g y in
  let logits = Graph.linear g ~input:pooled ~weight:fc_v in
  let log_probs = Graph.log_ g (Graph.softmax g logits) in
  let loss = Graph.nll_loss g ~log_probs ~targets in
  { cm_graph = g
  ; cm_images = images
  ; cm_targets = targets
  ; cm_loss = loss
  ; cm_feeds =
      [ (stem_v, stem_b); (w1_v, w1_b); (w2_v, w2_b); (fc_v, fc_b) ]
  }

let mini_cost (cm : compiled_mini) : Opcost.t = Graph.cost cm.cm_graph

let run_mini_compiled (cm : compiled_mini) (km : Kmgr.t) (ar : Arena.t)
    ~(images : Interp.Mem.buffer) ~(targets : Interp.Mem.buffer) : float =
  let feeds =
    (cm.cm_images, images) :: (cm.cm_targets, targets) :: cm.cm_feeds
  in
  match Graph.run cm.cm_graph km ar ~feeds [ cm.cm_loss ] with
  | [ loss ] ->
    let v = Interp.Mem.get_f loss 0 in
    Arena.reset ar;
    v
  | _ -> assert false

(* --- the ResNet layer sweep: one convolution of the real table, dims
   capped so the compiled engine finishes in test time, run through the
   kernel tier and checked against the Tensorlib reference --- *)

type layer_run =
  { lr_shape : Conv.shape
  ; lr_checksum : float
  ; lr_ref_checksum : float
  ; lr_secs : float
  }

let hw_cap = 8
let channel_cap = 16

let run_conv_layer (km : Kmgr.t) (ar : Arena.t) ~(batch : int)
    (l : conv_layer) : layer_run =
  let hw = min l.hw hw_cap in
  let cin = min l.c_in channel_cap in
  let cout = min l.c_out channel_cap in
  let ksize = min l.ksize hw in
  let p = { Conv.stride = l.stride; pad = ksize / 2 } in
  let xs = Tensor.rand (hw + cin) [| batch; cin; hw; hw |] in
  let ws = Tensor.rand (ksize + cout) [| cout; cin; ksize; ksize |] in
  let g = Graph.create () in
  let x = Graph.input g xs.Tensor.shape in
  let w = Graph.input g ws.Tensor.shape in
  let out = Graph.conv2d g ~input:x ~weight:w ~p in
  let t0 = Unix.gettimeofday () in
  let b =
    match
      Graph.run g km ar
        ~feeds:
          [ (x, Graph.buffer_of_tensor xs); (w, Graph.buffer_of_tensor ws) ]
        [ out ]
    with
    | [ b ] -> b
    | _ -> assert false
  in
  let secs = Unix.gettimeofday () -. t0 in
  let cs = Interp.Mem.checksum [| b |] in
  Arena.reset ar;
  let reference = Conv.im2col_gemm ~input:xs ~weight:ws ~p in
  let ref_cs =
    Interp.Mem.checksum [| Graph.buffer_of_tensor reference |]
  in
  { lr_shape = Conv.shape_of_tensors ~input:xs ~weight:ws ~p
  ; lr_checksum = cs
  ; lr_ref_checksum = ref_cs
  ; lr_secs = secs
  }
