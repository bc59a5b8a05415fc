(* The graph executor: a small static dataflow graph over the
   {!Kernels} op set.  Each constructor checks its shapes (and rejects a
   mismatch) and fixes the node's launch plan once: the kernels it
   launches, each with its arguments, and the sizes of its scratch
   buffers.  [run] walks the nodes, grabbing outputs and scratch buffers
   from an {!Arena} and launching every planned kernel through a
   {!Kmgr} — so an op executes as a transpiled mini-CUDA kernel through
   the full pipeline, never as OCaml loops.

   Alongside the computation the graph accumulates the analytic
   {!Tensorlib.Opcost} of its ops, so a caller can print the machine
   model's predicted time next to the measured one. *)

open Tensorlib

type vid = int

type kind =
  | Kf (* f64 tensor *)
  | Ki (* int tensor (targets) *)

(* A launch argument: a node input, the node's output, or one of its
   scratch buffers. *)
type arg =
  | In of vid
  | Out
  | Scratch of int

type node =
  { out : vid
  ; scratch : int array (* element counts, grabbed in this order *)
  ; launches : (Kernels.t * arg list) list
  }

type info =
  { shape : int array
  ; kind : kind
  }

type t =
  { vals : (vid, info) Hashtbl.t
  ; mutable nodes : node list (* reversed; run re-reverses *)
  ; mutable nvals : int
  ; mutable cost : Opcost.t
  }

let create () : t =
  { vals = Hashtbl.create 32; nodes = []; nvals = 0; cost = Opcost.zero }

let fail fmt = Printf.ksprintf (fun s -> invalid_arg ("graph: " ^ s)) fmt

let shape (g : t) (v : vid) : int array =
  match Hashtbl.find_opt g.vals v with
  | Some i -> i.shape
  | None -> fail "unknown value v%d" v

let numel (s : int array) = Array.fold_left ( * ) 1 s

let shape_str (s : int array) =
  String.concat "x" (Array.to_list (Array.map string_of_int s))

let new_val (g : t) (shape : int array) (kind : kind) : vid =
  let v = g.nvals in
  g.nvals <- g.nvals + 1;
  Hashtbl.replace g.vals v { shape; kind };
  v

let add_node ?(scratch = [||]) (g : t) (oshape : int array) (cost : Opcost.t)
    (launches : (Kernels.t * arg list) list) : vid =
  let out = new_val g oshape Kf in
  g.nodes <- { out; scratch; launches } :: g.nodes;
  g.cost <- Opcost.(g.cost ++ cost);
  out

let cost (g : t) : Opcost.t = g.cost

(* --- construction --- *)

let input (g : t) (shape : int array) : vid = new_val g shape Kf
let input_int (g : t) (len : int) : vid = new_val g [| len |] Ki

let rank4 g name v =
  let s = shape g v in
  if Array.length s <> 4 then
    fail "%s: expected a rank-4 NCHW tensor, got rank %d (%s)" name
      (Array.length s) (shape_str s);
  s

let rank2 g name v =
  let s = shape g v in
  if Array.length s <> 2 then
    fail "%s: expected a rank-2 tensor, got rank %d (%s)" name
      (Array.length s) (shape_str s);
  s

let conv2d (g : t) ~(input : vid) ~(weight : vid) ~(p : Conv.params) : vid =
  let si = rank4 g "conv2d" input and sw = rank4 g "conv2d" weight in
  if si.(1) <> sw.(1) then
    fail "conv2d: input has %d channels but the weight expects %d" si.(1)
      sw.(1);
  let sh =
    { Conv.n = si.(0); c = si.(1); h = si.(2); w = si.(3); k = sw.(0)
    ; r = sw.(2); s = sw.(3); p
    }
  in
  let oh, ow = Conv.out_dims sh in
  if oh <= 0 || ow <= 0 then
    fail "conv2d: a %dx%d kernel at stride %d pad %d does not fit the %dx%d \
          input"
      sh.Conv.r sh.Conv.s p.Conv.stride p.Conv.pad si.(2) si.(3);
  let rows = sh.Conv.c * sh.Conv.r * sh.Conv.s in
  let cols = sh.Conv.n * oh * ow in
  (* scratch 0: the patch matrix; scratch 1: the GEMM result *)
  add_node g
    ~scratch:[| rows * cols; sh.Conv.k * cols |]
    [| sh.Conv.n; sh.Conv.k; oh; ow |]
    (Conv.cost_im2col_gemm sh)
    [ (Kernels.im2col sh, [ Scratch 0; In input ])
    ; ( Kernels.gemm ~m:sh.Conv.k ~n:cols ~k:rows
      , [ Scratch 1; In weight; Scratch 0 ] )
    ; (Kernels.col2im ~n:sh.Conv.n ~k:sh.Conv.k ~oh ~ow, [ Out; Scratch 1 ])
    ]

let relu (g : t) (x : vid) : vid =
  let s = shape g x in
  add_node g (Array.copy s) (Layers.cost_relu (numel s))
    [ (Kernels.relu ~numel:(numel s), [ Out; In x ]) ]

let bias_relu (g : t) ~(input : vid) ~(bias : vid) : vid =
  let s = rank4 g "bias_relu" input in
  let sb = shape g bias in
  if Array.length sb <> 1 || sb.(0) <> s.(1) then
    fail "bias_relu: bias has %d elements but the input has %d channels"
      (numel sb) s.(1);
  add_node g (Array.copy s)
    (Layers.cost_bias_relu (numel s))
    [ ( Kernels.bias_relu ~numel:(numel s) ~c:s.(1) ~hw:(s.(2) * s.(3))
      , [ Out; In input; In bias ] )
    ]

let add (g : t) (a : vid) (b : vid) : vid =
  let sa = shape g a and sb = shape g b in
  if numel sa <> numel sb then
    fail "add: operand shapes %s and %s differ in element count"
      (shape_str sa) (shape_str sb);
  add_node g (Array.copy sa)
    (Layers.cost_relu (numel sa))
    [ (Kernels.add ~numel:(numel sa), [ Out; In a; In b ]) ]

let maxpool (g : t) ~(size : int) ~(stride : int) (x : vid) : vid =
  let s = rank4 g "maxpool" x in
  if s.(2) < size || s.(3) < size then
    fail "maxpool: window %d exceeds the %dx%d input" size s.(2) s.(3);
  let oh = ((s.(2) - size) / stride) + 1 in
  let ow = ((s.(3) - size) / stride) + 1 in
  add_node g
    [| s.(0); s.(1); oh; ow |]
    (Layers.cost_maxpool ~size (s.(0) * s.(1) * oh * ow))
    [ ( Kernels.maxpool ~n:s.(0) ~c:s.(1) ~h:s.(2) ~w:s.(3) ~size ~stride
      , [ Out; In x ] )
    ]

let global_avgpool (g : t) (x : vid) : vid =
  let s = rank4 g "global_avgpool" x in
  add_node g
    [| s.(0); s.(1) |]
    (Layers.cost_avgpool (numel s))
    [ ( Kernels.avgpool_global ~n:s.(0) ~c:s.(1) ~hw:(s.(2) * s.(3))
      , [ Out; In x ] )
    ]

let batchnorm (g : t) ~(input : vid) ~(gamma : vid) ~(beta : vid)
    ~(mean : vid) ~(var : vid) : vid =
  let s = rank4 g "batchnorm" input in
  List.iter
    (fun (name, v) ->
      let sv = shape g v in
      if numel sv <> s.(1) then
        fail "batchnorm: %s has %d elements but the input has %d channels"
          name (numel sv) s.(1))
    [ ("gamma", gamma); ("beta", beta); ("mean", mean); ("var", var) ];
  add_node g (Array.copy s)
    (Layers.cost_batchnorm (numel s))
    [ ( Kernels.batchnorm ~numel:(numel s) ~c:s.(1) ~hw:(s.(2) * s.(3))
      , [ Out; In input; In gamma; In beta; In mean; In var ] )
    ]

let linear (g : t) ~(input : vid) ~(weight : vid) : vid =
  let si = rank2 g "linear" input and sw = rank2 g "linear" weight in
  if si.(1) <> sw.(1) then
    fail "linear: input has %d features but the weight expects %d" si.(1)
      sw.(1);
  add_node g
    [| si.(0); sw.(0) |]
    (Layers.cost_linear ~n:si.(0) ~infeat:si.(1) ~outfeat:sw.(0))
    [ ( Kernels.linear ~n:si.(0) ~infeat:si.(1) ~outfeat:sw.(0)
      , [ Out; In input; In weight ] )
    ]

let softmax (g : t) (x : vid) : vid =
  let s = rank2 g "softmax" x in
  add_node g (Array.copy s)
    (Layers.cost_softmax (numel s))
    [ (Kernels.softmax ~rows:s.(0) ~cols:s.(1), [ Out; In x ]) ]

let log_ (g : t) (x : vid) : vid =
  let s = shape g x in
  add_node g (Array.copy s)
    (Layers.cost_relu (numel s))
    [ (Kernels.logk ~numel:(numel s), [ Out; In x ]) ]

let nll_loss (g : t) ~(log_probs : vid) ~(targets : vid) : vid =
  let s = rank2 g "nll_loss" log_probs in
  let st = shape g targets in
  (match Hashtbl.find g.vals targets with
   | { kind = Ki; _ } -> ()
   | _ -> fail "nll_loss: targets must be an integer input");
  if st.(0) <> s.(0) then
    fail "nll_loss: %d targets for a batch of %d" st.(0) s.(0);
  (* scratch 0: the per-sample losses *)
  add_node g ~scratch:[| s.(0) |] [| 1 |] (Layers.cost_nll s.(0))
    [ ( Kernels.nll ~n:s.(0) ~classes:s.(1)
      , [ Out; Scratch 0; In log_probs; In targets ] )
    ]

(* --- feed helpers --- *)

let buffer_of_tensor (t : Tensor.t) : Interp.Mem.buffer =
  let n = Tensor.numel t in
  let b = Interp.Mem.alloc_buffer Ir.Types.F64 [| n |] in
  for i = 0 to n - 1 do
    Interp.Mem.set_f b i t.Tensor.data.(i)
  done;
  b

let buffer_of_ints (a : int array) : Interp.Mem.buffer =
  Interp.Mem.of_int_array (Array.copy a)

(* --- execution --- *)

let run (g : t) (km : Kmgr.t) (ar : Arena.t)
    ~(feeds : (vid * Interp.Mem.buffer) list) (outs : vid list) :
  Interp.Mem.buffer list =
  let env : Interp.Mem.buffer option array = Array.make g.nvals None in
  List.iter
    (fun (v, b) ->
      let info =
        match Hashtbl.find_opt g.vals v with
        | Some i -> i
        | None -> fail "feed for unknown value v%d" v
      in
      let want = numel info.shape in
      if Interp.Mem.size b <> want then
        fail "feed for v%d has %d elements, expected %d (%s)" v
          (Interp.Mem.size b) want (shape_str info.shape);
      env.(v) <- Some b)
    feeds;
  let get v =
    match env.(v) with
    | Some b -> b
    | None -> fail "value v%d used before it was computed or fed" v
  in
  let exec (nd : node) : unit =
    let out = Arena.grab ar (numel (shape g nd.out)) in
    let scratch = Array.map (Arena.grab ar) nd.scratch in
    let arg = function
      | In v -> Interp.Mem.Buf (get v)
      | Out -> Interp.Mem.Buf out
      | Scratch i -> Interp.Mem.Buf scratch.(i)
    in
    List.iter (fun (k, args) -> Kmgr.launch km k (List.map arg args))
      nd.launches;
    env.(nd.out) <- Some out
  in
  List.iter exec (List.rev g.nodes);
  List.map get outs
