(* Tensor / MocCUDA tests: the conv backends agree numerically, the
   MocCUDA+Polygeist NLL matches the reference loss bitwise, the CUDART
   emulation behaves, and the cost model reproduces the Fig.-15 ordering
   on the A64FX machine model. *)

open Tensorlib

let feq = Alcotest.(check (float 1e-4))

let test_gemm_blocked_matches_naive () =
  let a = Tensor.rand 1 [| 13; 17 |] in
  let b = Tensor.rand 2 [| 17; 9 |] in
  let c1 = Tensor.create [| 13; 9 |] in
  let c2 = Tensor.create [| 13; 9 |] in
  Gemm.naive ~a ~b ~c:c1;
  Gemm.blocked ~tile:4 ~a ~b ~c:c2 ();
  Alcotest.(check bool) "identical" true (Tensor.max_abs_diff c1 c2 < 1e-9)

let test_conv_backends_agree () =
  let input = Tensor.rand 3 [| 2; 3; 9; 9 |] in
  let weight = Tensor.rand 4 [| 4; 3; 3; 3 |] in
  List.iter
    (fun p ->
      let reference = Conv.naive ~input ~weight ~p in
      let gemm = Conv.im2col_gemm ~input ~weight ~p in
      Alcotest.(check bool)
        (Printf.sprintf "stride %d pad %d" p.Conv.stride p.Conv.pad)
        true
        (Tensor.max_abs_diff reference gemm < 1e-6))
    [ { Conv.stride = 1; pad = 1 }; { Conv.stride = 2; pad = 1 }
    ; { Conv.stride = 1; pad = 0 } ]

let test_mini_resnet_backends_agree () =
  let m = Moccuda.Resnet.mini_model ~channels:4 in
  let images = Tensor.rand 10 [| 2; 3; 8; 8 |] in
  let targets = [| 3; 7 |] in
  let losses =
    List.map
      (fun b -> Moccuda.Resnet.mini_forward b m ~images ~targets)
      Moccuda.Backends.all
  in
  match losses with
  | reference :: rest ->
    List.iteri
      (fun i l -> feq (Printf.sprintf "backend %d" (i + 1)) reference l)
      rest
  | [] -> assert false

let test_cudart_memory_and_streams () =
  let st = Moccuda.Cudart.create () in
  let _, count = Moccuda.Cudart.cuda_get_device_count st in
  Alcotest.(check int) "one device per NUMA domain" 4 count;
  let _, props = Moccuda.Cudart.cuda_get_device_properties st 0 in
  Alcotest.(check string)
    "props dump" "NVIDIA GeForce RTX 2080 Ti"
    (Option.get props).Moccuda.Cudart.prop_name;
  let err, ptr = Moccuda.Cudart.cuda_malloc st 64 in
  Alcotest.(check bool) "malloc ok" true (err = Moccuda.Cudart.Success);
  let host = Array.init 16 float_of_int in
  let err =
    Moccuda.Cudart.cuda_memcpy st ~dst:(`Device ptr) ~src:(`Host host)
      ~count:64 Moccuda.Cudart.Host_to_device
  in
  Alcotest.(check bool) "h2d ok" true (err = Moccuda.Cudart.Success);
  let back = Array.make 16 0.0 in
  let _ =
    Moccuda.Cudart.cuda_memcpy st ~dst:(`Host back) ~src:(`Device ptr)
      ~count:64 Moccuda.Cudart.Device_to_host
  in
  Alcotest.(check bool) "roundtrip" true (back = host);
  (* stream ordering *)
  let _, sid = Moccuda.Cudart.cuda_stream_create st in
  let log = ref [] in
  ignore (Moccuda.Cudart.enqueue st sid (fun () -> log := 1 :: !log));
  ignore (Moccuda.Cudart.enqueue st sid (fun () -> log := 2 :: !log));
  Alcotest.(check (list int)) "lazy until sync" [] !log;
  ignore (Moccuda.Cudart.cuda_stream_synchronize st sid);
  Alcotest.(check (list int)) "FIFO order" [ 2; 1 ] !log;
  Alcotest.(check bool) "free ok" true
    (Moccuda.Cudart.cuda_free st ptr = Moccuda.Cudart.Success);
  Alcotest.(check bool) "double free rejected" true
    (Moccuda.Cudart.cuda_free st ptr = Moccuda.Cudart.Invalid_value)

(* Fig. 15 shape: on the A64FX model MocCUDA beats tuned oneDNN clearly
   (paper: geomean 2.7x, min 1.2x, max 4.5x), and the native backend is
   far slower than everything. *)
let test_fig15_ordering_on_a64fx () =
  let machine = Runtime.Machine.a64fx in
  List.iter
    (fun batch ->
      let t b = Moccuda.Resnet.throughput b machine ~batch ~threads:12 in
      let moc = t Moccuda.Backends.Moccuda_polygeist in
      let onednn = t Moccuda.Backends.One_dnn in
      let native = t Moccuda.Backends.Native in
      let ratio = moc /. onednn in
      Alcotest.(check bool)
        (Printf.sprintf "batch %d: moc/onednn = %.2f in [1.2, 6]" batch ratio)
        true
        (ratio >= 1.2 && ratio <= 6.0);
      Alcotest.(check bool)
        (Printf.sprintf "batch %d: native slowest (%.1f vs %.1f)" batch native
           onednn)
        true (native < onednn))
    [ 1; 4; 12 ]

let test_expert_close_to_polygeist () =
  let machine = Runtime.Machine.a64fx in
  let t b = Moccuda.Resnet.throughput b machine ~batch:8 ~threads:12 in
  let e = t Moccuda.Backends.Moccuda_expert in
  let p = t Moccuda.Backends.Moccuda_polygeist in
  Alcotest.(check bool)
    (Printf.sprintf "expert %.1f ~ polygeist %.1f" e p)
    true
    (p /. e > 0.85 && p /. e <= 1.0)

let test_resnet50_has_53_convs () =
  (* 1 stem + 3*3+1 + 4*3+1 + 6*3+1 + 3*3+1 = 53 *)
  Alcotest.(check int) "conv count" 53 Moccuda.Resnet.n_convs

(* --- the kernel tier: every tensor op as a transpiled mini-CUDA
   kernel, checked bitwise against the Tensorlib reference at 1 and 4
   domains --- *)

module G = Moccuda.Graph

let csum b = Interp.Mem.checksum [| b |]
let csum_t t = csum (G.buffer_of_tensor t)

(* [build g] returns (feeds, output vid, reference tensor); the kernel
   output must checksum bit-identically to the reference. *)
let kernel_agrees name
    (build :
      G.t -> (G.vid * Interp.Mem.buffer) list * G.vid * Tensor.t) : unit =
  List.iter
    (fun domains ->
      let km = Moccuda.Kmgr.create ~domains () in
      let ar = Moccuda.Arena.create () in
      let g = G.create () in
      let feeds, out, reference = build g in
      match G.run g km ar ~feeds [ out ] with
      | [ b ] ->
        Alcotest.(check bool)
          (Printf.sprintf "%s bitwise at %d domain(s)" name domains)
          true
          (Int64.equal
             (Int64.bits_of_float (csum b))
             (Int64.bits_of_float (csum_t reference)))
      | _ -> assert false)
    [ 1; 4 ]

let feed g t = (G.input g t.Tensor.shape, G.buffer_of_tensor t)

let test_kernel_ops_match_reference () =
  let x4 = Tensor.rand 11 [| 2; 3; 5; 5 |] in
  kernel_agrees "conv2d s1p1" (fun g ->
      let w = Tensor.rand 12 [| 4; 3; 3; 3 |] in
      let p = { Conv.stride = 1; pad = 1 } in
      let xv, xb = feed g x4 and wv, wb = feed g w in
      ( [ (xv, xb); (wv, wb) ]
      , G.conv2d g ~input:xv ~weight:wv ~p
      , Conv.im2col_gemm ~input:x4 ~weight:w ~p ));
  kernel_agrees "conv2d s2p1" (fun g ->
      let w = Tensor.rand 13 [| 5; 3; 3; 3 |] in
      let p = { Conv.stride = 2; pad = 1 } in
      let xv, xb = feed g x4 and wv, wb = feed g w in
      ( [ (xv, xb); (wv, wb) ]
      , G.conv2d g ~input:xv ~weight:wv ~p
      , Conv.im2col_gemm ~input:x4 ~weight:w ~p ));
  kernel_agrees "relu" (fun g ->
      let xv, xb = feed g x4 in
      ([ (xv, xb) ], G.relu g xv, Layers.relu x4));
  kernel_agrees "bias_relu" (fun g ->
      let bias = [| 0.3; -0.1; 0.05 |] in
      let bt = Tensor.of_array [| 3 |] bias in
      let xv, xb = feed g x4 and bv, bb = feed g bt in
      ( [ (xv, xb); (bv, bb) ]
      , G.bias_relu g ~input:xv ~bias:bv
      , Layers.bias_relu ~bias x4 ));
  kernel_agrees "add" (fun g ->
      let y4 = Tensor.rand 14 [| 2; 3; 5; 5 |] in
      let out = Tensor.copy x4 in
      Tensor.add_inplace out y4;
      let xv, xb = feed g x4 and yv, yb = feed g y4 in
      ([ (xv, xb); (yv, yb) ], G.add g xv yv, out));
  kernel_agrees "maxpool 2/2" (fun g ->
      let x = Tensor.rand 15 [| 2; 3; 6; 6 |] in
      let xv, xb = feed g x in
      ( [ (xv, xb) ]
      , G.maxpool g ~size:2 ~stride:2 xv
      , Layers.maxpool ~size:2 ~stride:2 x ));
  kernel_agrees "maxpool 3/2" (fun g ->
      let x = Tensor.rand 16 [| 1; 4; 7; 7 |] in
      let xv, xb = feed g x in
      ( [ (xv, xb) ]
      , G.maxpool g ~size:3 ~stride:2 xv
      , Layers.maxpool ~size:3 ~stride:2 x ));
  kernel_agrees "global avgpool" (fun g ->
      let xv, xb = feed g x4 in
      ([ (xv, xb) ], G.global_avgpool g xv, Layers.avgpool_global x4));
  kernel_agrees "batchnorm" (fun g ->
      let gamma = [| 1.2; 0.8; 1.0 |]
      and beta = [| 0.1; -0.2; 0.0 |]
      and mean = [| 0.05; -0.03; 0.2 |]
      and var = [| 0.9; 1.1; 0.7 |] in
      let arr a = Tensor.of_array [| 3 |] a in
      let xv, xb = feed g x4 in
      let gv, gb = feed g (arr gamma) and bv, bb = feed g (arr beta) in
      let mv, mb = feed g (arr mean) and vv, vb = feed g (arr var) in
      ( [ (xv, xb); (gv, gb); (bv, bb); (mv, mb); (vv, vb) ]
      , G.batchnorm g ~input:xv ~gamma:gv ~beta:bv ~mean:mv ~var:vv
      , Layers.batchnorm ~gamma ~beta ~mean ~var x4 ));
  kernel_agrees "linear" (fun g ->
      let x = Tensor.rand 17 [| 3; 5 |] in
      let w = Tensor.rand 18 [| 4; 5 |] in
      let xv, xb = feed g x and wv, wb = feed g w in
      ( [ (xv, xb); (wv, wb) ]
      , G.linear g ~input:xv ~weight:wv
      , Layers.linear ~weight:w x ));
  kernel_agrees "softmax" (fun g ->
      let x = Tensor.rand 19 [| 4; 7 |] in
      let xv, xb = feed g x in
      ([ (xv, xb) ], G.softmax g xv, Layers.softmax x));
  kernel_agrees "log" (fun g ->
      let x = Layers.softmax (Tensor.rand 20 [| 4; 7 |]) in
      let xv, xb = feed g x in
      ( [ (xv, xb) ]
      , G.log_ g xv
      , Tensor.of_array (Array.copy x.Tensor.shape)
          (Array.map log x.Tensor.data) ))

(* nll yields a scalar, so it gets its own harness. *)
let test_kernel_nll_matches_reference () =
  let n = 6 and classes = 5 in
  let probs = Layers.softmax (Tensor.rand 21 [| n; classes |]) in
  let log_probs =
    Tensor.of_array [| n; classes |] (Array.map log probs.Tensor.data)
  in
  let targets = Array.init n (fun i -> (i * 2) mod classes) in
  let expected = Layers.nll_loss ~log_probs ~targets in
  List.iter
    (fun domains ->
      let km = Moccuda.Kmgr.create ~domains () in
      let ar = Moccuda.Arena.create () in
      let g = G.create () in
      let lv, lb = feed g log_probs in
      let tv = G.input_int g n in
      let loss = G.nll_loss g ~log_probs:lv ~targets:tv in
      match
        G.run g km ar
          ~feeds:[ (lv, lb); (tv, G.buffer_of_ints targets) ]
          [ loss ]
      with
      | [ b ] ->
        Alcotest.(check bool)
          (Printf.sprintf "nll bitwise at %d domain(s)" domains)
          true
          (Int64.equal
             (Int64.bits_of_float (Interp.Mem.get_f b 0))
             (Int64.bits_of_float expected))
      | _ -> assert false)
    [ 1; 4 ]

let expect_graph_error name part (f : unit -> G.vid) =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument msg ->
    let contains s sub =
      let n = String.length sub in
      let rec go i =
        i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool)
      (Printf.sprintf "%s: %S mentions %S" name msg part)
      true (contains msg part)

let test_graph_shape_errors () =
  let g = G.create () in
  let x = G.input g [| 2; 3; 5; 5 |] in
  let w_bad = G.input g [| 4; 7; 3; 3 |] in
  expect_graph_error "conv2d channel mismatch" "channels" (fun () ->
      G.conv2d g ~input:x ~weight:w_bad ~p:{ Conv.stride = 1; pad = 1 });
  let bias_bad = G.input g [| 5 |] in
  expect_graph_error "bias_relu bias size" "channels" (fun () ->
      G.bias_relu g ~input:x ~bias:bias_bad);
  let y = G.input g [| 2; 3; 4; 4 |] in
  expect_graph_error "add size mismatch" "element count" (fun () ->
      G.add g x y);
  let flat = G.input g [| 2; 15 |] in
  let w_fc = G.input g [| 10; 16 |] in
  expect_graph_error "linear feature mismatch" "features" (fun () ->
      G.linear g ~input:flat ~weight:w_fc);
  let targets = G.input_int g 3 in
  expect_graph_error "nll batch mismatch" "targets" (fun () ->
      G.nll_loss g ~log_probs:flat ~targets);
  expect_graph_error "softmax wants rank 2" "rank" (fun () ->
      G.softmax g x);
  expect_graph_error "maxpool window too large" "window" (fun () ->
      G.maxpool g ~size:9 ~stride:1 x)

(* Kernel-cache discipline: second pass over the same shapes compiles
   nothing; a different shape is a different entry. *)
let test_kernel_cache_reuse () =
  let km = Moccuda.Kmgr.create ~domains:2 () in
  let ar = Moccuda.Arena.create () in
  let run_relu n =
    let g = G.create () in
    let x = Tensor.rand (100 + n) [| n |] in
    let xv, xb = feed g x in
    ignore (G.run g km ar ~feeds:[ (xv, xb) ] [ G.relu g xv ]);
    Moccuda.Arena.reset ar
  in
  run_relu 32;
  let s = Moccuda.Kmgr.stats km in
  Alcotest.(check int) "cold compile" 1 s.Moccuda.Kmgr.compiles;
  run_relu 32;
  let s = Moccuda.Kmgr.stats km in
  Alcotest.(check int) "warm: no recompile" 1 s.Moccuda.Kmgr.compiles;
  Alcotest.(check bool) "warm: cache hit" true (s.Moccuda.Kmgr.hits >= 1);
  run_relu 48;
  let s = Moccuda.Kmgr.stats km in
  Alcotest.(check int) "new shape: new entry" 2 s.Moccuda.Kmgr.compiles;
  Alcotest.(check int) "nothing degraded" 0 s.Moccuda.Kmgr.degraded

(* A kernel's identity is its (name, shape), the key of the kernel cache:
   for every constructor, varying any one parameter either leaves the
   source unchanged or changes the shape too.  im2col takes a whole
   [Conv.shape]; its [k] is unused, so varying it changes nothing. *)
let kernel_constructors : (string * int * (int array -> Moccuda.Kernels.t)) list
  =
  let open Moccuda.Kernels in
  [ ("gemm", 3, fun p -> gemm ~m:p.(0) ~n:p.(1) ~k:p.(2))
  ; ( "im2col"
    , 9
    , fun p ->
        im2col
          { Conv.n = p.(0); c = p.(1); h = p.(2); w = p.(3); k = p.(4)
          ; r = p.(5); s = p.(6); p = { Conv.stride = p.(7); pad = p.(8) } } )
  ; ("col2im", 4, fun p -> col2im ~n:p.(0) ~k:p.(1) ~oh:p.(2) ~ow:p.(3))
  ; ("relu", 1, fun p -> relu ~numel:p.(0))
  ; ("bias_relu", 3, fun p -> bias_relu ~numel:p.(0) ~c:p.(1) ~hw:p.(2))
  ; ("add", 1, fun p -> add ~numel:p.(0))
  ; ( "maxpool"
    , 6
    , fun p ->
        maxpool ~n:p.(0) ~c:p.(1) ~h:p.(2) ~w:p.(3) ~size:p.(4) ~stride:p.(5)
    )
  ; ("avgpool_global", 3, fun p -> avgpool_global ~n:p.(0) ~c:p.(1) ~hw:p.(2))
  ; ("batchnorm", 3, fun p -> batchnorm ~numel:p.(0) ~c:p.(1) ~hw:p.(2))
  ; ("linear", 3, fun p -> linear ~n:p.(0) ~infeat:p.(1) ~outfeat:p.(2))
  ; ("softmax", 2, fun p -> softmax ~rows:p.(0) ~cols:p.(1))
  ; ("log", 1, fun p -> logk ~numel:p.(0))
  ; ("nll", 2, fun p -> nll ~n:p.(0) ~classes:p.(1))
  ]

let test_kernel_identity =
  let max_arity = 9 in
  QCheck.Test.make ~name:"kernels: a new source comes with a new shape"
    ~count:200
    (* no shrinker: a shorter array would not fit the constructors *)
    (QCheck.make
       ~print:QCheck.Print.(pair (array int) (array int))
       QCheck.Gen.(
         pair
           (array_size (return max_arity) (int_range 1 12))
           (array_size (return max_arity) (int_range 1 5))))
    (fun (base, delta) ->
      List.for_all
        (fun (name, arity, make) ->
          let k0 = make base in
          List.for_all
            (fun i ->
              let p = Array.copy base in
              p.(i) <- p.(i) + delta.(i);
              let k1 = make p in
              String.equal k0.Moccuda.Kernels.src k1.Moccuda.Kernels.src
              || k0.Moccuda.Kernels.shape <> k1.Moccuda.Kernels.shape
              || QCheck.Test.fail_reportf
                   "%s: parameter %d from %d to %d changed the source but \
                    not the shape"
                   name i base.(i) p.(i))
            (List.init arity Fun.id))
        kernel_constructors)

(* --- scalar temporaries: what the kernel library lowers to --- *)

let im2col_kernel ~batch =
  Moccuda.Kernels.im2col
    { Conv.n = batch; c = 8; h = 8; w = 8; k = 8; r = 3; s = 3
    ; p = { Conv.stride = 1; pad = 1 } }

(* Every kernel of the library (and every Rodinia program) lowers on the
   primary rung, nothing degraded. *)
let lower_primary what src =
  let m = Cudafe.Codegen.compile src in
  match
    Core.Passmgr.lower (Core.Passmgr.Optimized Core.Omp_lower.default_options) m
  with
  | Ok r when not (Core.Passmgr.degraded r) -> m
  | Ok r ->
    Alcotest.failf "%s degraded:\n%s" what (Core.Passmgr.report_to_string r)
  | Error (_, e) -> Alcotest.failf "%s failed to lower: %s" what e

let count p m =
  let n = ref 0 in
  Ir.Op.iter (fun o -> if p o then incr n) m;
  !n

let is_alloc (o : Ir.Op.op) =
  match o.Ir.Op.kind with Ir.Op.Alloc | Ir.Op.Alloca -> true | _ -> false

let is_cmp (o : Ir.Op.op) =
  match o.Ir.Op.kind with Ir.Op.Cmp _ -> true | _ -> false

(* The integer constants of [m], by value. *)
let literals m : Ir.Value.t -> int option =
  let lits = Ir.Value.Tbl.create 16 in
  Ir.Op.iter
    (fun o ->
      match o.Ir.Op.kind with
      | Ir.Op.Constant (Ir.Op.Cint (n, _)) ->
        Ir.Value.Tbl.replace lits (Ir.Op.result o) n
      | _ -> ())
    m;
  Ir.Value.Tbl.find_opt lits

(* Does one of [o]'s operands hold a literal satisfying [p]? *)
let has_literal lit p (o : Ir.Op.op) =
  Array.exists
    (fun v -> match lit v with Some n -> p n | None -> false)
    o.Ir.Op.operands

let test_library_lowers_primary () =
  let open Moccuda.Kernels in
  List.iter
    (fun (k : Moccuda.Kernels.t) -> ignore (lower_primary k.name k.src))
    [ gemm ~m:8 ~n:128 ~k:72; im2col_kernel ~batch:2
    ; col2im ~n:2 ~k:8 ~oh:8 ~ow:8; relu ~numel:1000
    ; bias_relu ~numel:512 ~c:8 ~hw:64; add ~numel:1000
    ; maxpool ~n:2 ~c:4 ~h:8 ~w:8 ~size:2 ~stride:2
    ; avgpool_global ~n:2 ~c:8 ~hw:64; batchnorm ~numel:512 ~c:8 ~hw:64
    ; linear ~n:2 ~infeat:8 ~outfeat:10; softmax ~rows:2 ~cols:10
    ; logk ~numel:20; nll ~n:2 ~classes:10 ];
  List.iter
    (fun (b : Rodinia.Bench_def.t) -> ignore (lower_primary b.name b.cuda_src))
    (Rodinia.Registry.matmul :: Rodinia.Registry.all);
  let im2col = lower_primary "im2col" (im2col_kernel ~batch:2).src in
  Alcotest.(check int) "im2col keeps no alloca or alloc" 0 (count is_alloc im2col);
  (* 144 blocks of 64 threads cover the 72 x 128 patch matrix exactly,
     and every index is non-negative: the [idx < total] guard folds, and
     the power-of-two divisions become shifts and masks *)
  let lit = has_literal (literals im2col) in
  Alcotest.(check int) "im2col keeps no idx < total test" 0
    (count (fun o -> is_cmp o && lit (( = ) (72 * 128)) o) im2col);
  Alcotest.(check int) "im2col keeps no divi/remi by 8, 64 or 128" 0
    (count
       (fun o ->
         (match o.Ir.Op.kind with
          | Ir.Op.Binop (Ir.Op.Div | Ir.Op.Rem) -> true
          | _ -> false)
         && lit (fun n -> List.mem n [ 8; 64; 128 ]) o)
       im2col)

(* The lowered 8x128x72 GEMM keeps one thread-private slab, for [acc],
   allocated once per block (outside every serial loop); the k loop
   carries [acc] in a register (an iter_arg) and touches no slab; no
   empty loop is left.  Its shape is tile-aligned, so the launch bounds
   prove every edge guard true: no [scf.if] and no comparison is left.
   With K = 27 only the k-edge guards remain. *)
let test_gemm_lowering () =
  let m = lower_primary "gemm" (Moccuda.Kernels.gemm ~m:8 ~n:128 ~k:72).src in
  Alcotest.(check int) "tile-aligned: no scf.if" 0
    (count (fun o -> o.Ir.Op.kind = Ir.Op.If) m);
  Alcotest.(check int) "tile-aligned: no arith.cmp" 0 (count is_cmp m);
  let m27 = lower_primary "gemm" (Moccuda.Kernels.gemm ~m:8 ~n:128 ~k:27).src in
  let cmps = count is_cmp m27 in
  Alcotest.(check bool) "K = 27: the k edge is still guarded" true (cmps > 0);
  Alcotest.(check int) "K = 27: every comparison is against K" cmps
    (count (fun o -> is_cmp o && has_literal (literals m27) (( = ) 27) o) m27);
  let slabs = ref [] in
  let rec walk ~in_for (o : Ir.Op.op) =
    (match o.Ir.Op.kind with
     | Ir.Op.Alloc ->
       if in_for then Alcotest.fail "a slab is allocated inside a serial loop";
       slabs := Ir.Op.result o :: !slabs
     | _ -> ());
    let in_for = in_for || o.Ir.Op.kind = Ir.Op.For in
    Array.iter (fun r -> List.iter (walk ~in_for) r.Ir.Op.body) o.Ir.Op.regions
  in
  walk ~in_for:false m;
  Alcotest.(check int) "one slab" 1 (List.length !slabs);
  let slab = List.hd !slabs in
  let carrying = ref 0 in
  Ir.Op.iter
    (fun o ->
      if o.Ir.Op.kind = Ir.Op.For && Ir.Op.carries_values o then begin
        incr carrying;
        let touches =
          count
            (fun a ->
              Array.exists (Ir.Value.equal slab) a.Ir.Op.operands
              && (a.Ir.Op.kind = Ir.Op.Load || a.Ir.Op.kind = Ir.Op.Store))
            o
        in
        Alcotest.(check int) "no slab access inside the k loop" 0 touches
      end)
    m;
  Alcotest.(check int) "the k loop carries acc" 1 !carrying;
  Alcotest.(check int) "no empty loop" 0
    (count
       (fun o ->
         o.Ir.Op.kind = Ir.Op.For
         && List.for_all
              (fun (b : Ir.Op.op) -> b.Ir.Op.kind = Ir.Op.Yield)
              o.Ir.Op.regions.(0).Ir.Op.body)
       m)

(* The engine proves every shared-tile and slab access of GEMM in
   bounds and fuses its k loop: plain when K is a multiple of the tile,
   guarded by the k edge test when it is not. *)
let test_gemm_proofs () =
  List.iter
    (fun (k, dots, guarded_dots) ->
      let m = lower_primary "gemm" (Moccuda.Kernels.gemm ~m:8 ~n:128 ~k).src in
      let allocs = ref [] in
      Ir.Op.iter (fun o -> if is_alloc o then allocs := Ir.Op.result o :: !allocs) m;
      let on_alloc (o : Ir.Op.op) =
        let buf =
          match o.Ir.Op.kind with
          | Ir.Op.Load -> Some o.Ir.Op.operands.(0)
          | Ir.Op.Store -> Some o.Ir.Op.operands.(1)
          | _ -> None
        in
        match buf with
        | Some b -> List.exists (Ir.Value.equal b) !allocs
        | None -> false
      in
      let tile_accesses = count on_alloc m in
      let d = Runtime.Exec.decisions (Runtime.Exec.compile m "run") in
      let what = Printf.sprintf "K = %d: " k in
      Alcotest.(check int) (what ^ "As, Bs and the slab: 3 allocs") 3
        (List.length !allocs);
      Alcotest.(check int) (what ^ "every tile and slab access proven")
        tile_accesses d.Runtime.Exec.proven;
      Alcotest.(check int) (what ^ "plain fused dot loops") dots d.Runtime.Exec.dots;
      Alcotest.(check int) (what ^ "guarded fused dot loops") guarded_dots
        d.Runtime.Exec.guarded_dots)
    [ (72, 1, 0); (27, 0, 1) ]

(* A warm im2col launch allocates the same few words at batch 1 and at
   batch 8: no scratch slot is heap-allocated per element. *)
let test_im2col_allocation_gate () =
  let words batch =
    let m = lower_primary "im2col" (im2col_kernel ~batch).src in
    let c = Runtime.Exec.compile m "run" in
    let p = Interp.Mem.alloc_buffer Ir.Types.F64 [| 72 * batch * 64 |] in
    let x = Interp.Mem.alloc_buffer Ir.Types.F64 [| batch * 8 * 64 |] in
    let args = [ Interp.Mem.Buf p; Interp.Mem.Buf x ] in
    ignore (Runtime.Exec.run ~domains:1 c args);
    let w0 = Gc.minor_words () in
    ignore (Runtime.Exec.run ~domains:1 c args);
    Gc.minor_words () -. w0
  in
  let w1 = words 1 and w8 = words 8 in
  if Float.abs (w8 -. w1) >= 1000.0 then
    Alcotest.failf "minor words per launch: %.0f at batch 1, %.0f at batch 8" w1
      w8

let tests =
  [ Alcotest.test_case "blocked gemm = naive" `Quick
      test_gemm_blocked_matches_naive
  ; Alcotest.test_case "conv backends agree" `Quick test_conv_backends_agree
  ; Alcotest.test_case "mini resnet backends agree" `Quick
      test_mini_resnet_backends_agree
  ; Alcotest.test_case "cudart memory and streams" `Quick
      test_cudart_memory_and_streams
  ; Alcotest.test_case "fig15 ordering on a64fx" `Quick
      test_fig15_ordering_on_a64fx
  ; Alcotest.test_case "expert ~ polygeist" `Quick
      test_expert_close_to_polygeist
  ; Alcotest.test_case "resnet50 conv count" `Quick test_resnet50_has_53_convs
  ; Alcotest.test_case "kernel ops match reference" `Quick
      test_kernel_ops_match_reference
  ; Alcotest.test_case "kernel nll matches reference" `Quick
      test_kernel_nll_matches_reference
  ; Alcotest.test_case "graph shape errors" `Quick test_graph_shape_errors
  ; Alcotest.test_case "kernel cache reuse" `Quick test_kernel_cache_reuse
  ; QCheck_alcotest.to_alcotest test_kernel_identity
  ; Alcotest.test_case "library lowers on the primary rung" `Quick
      test_library_lowers_primary
  ; Alcotest.test_case "gemm: one slab, acc carried" `Quick test_gemm_lowering
  ; Alcotest.test_case "gemm: tile accesses proven, k loop fused" `Quick
      test_gemm_proofs
  ; Alcotest.test_case "im2col: allocation flat in batch" `Quick
      test_im2col_allocation_gate
  ]
