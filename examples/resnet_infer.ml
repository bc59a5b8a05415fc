(* MocCUDA in action: a miniature ResNet-style network runs identically
   under all four backends, then again through the compiled kernel tier
   — every tensor op, the NLL loss included, a transpiled mini-CUDA
   kernel on the multicore engine, bit-identical to the reference, with
   the cost model's prediction next to the measured time.  The CUDART
   emulation answers PyTorch-style runtime queries, and the Fig. 15
   throughput sweep runs on the A64FX machine model.  Exits 1 when the
   compiled loss is not bit-identical to the Tensorlib reference.

     dune exec examples/resnet_infer.exe *)

open Tensorlib

let () =
  (* 1. the CUDA runtime emulation PyTorch talks to *)
  let st = Moccuda.Cudart.create () in
  let _, ndev = Moccuda.Cudart.cuda_get_device_count st in
  let _, props = Moccuda.Cudart.cuda_get_device_properties st 0 in
  let p = Option.get props in
  Printf.printf "CUDART emulation: %d virtual devices (one per NUMA domain)\n"
    ndev;
  Printf.printf "device 0 properties (MocCUDA's dump): %s, %d SMs, cc %d.%d\n\n"
    p.Moccuda.Cudart.prop_name p.Moccuda.Cudart.multi_processor_count
    (fst p.Moccuda.Cudart.compute_capability)
    (snd p.Moccuda.Cudart.compute_capability);
  (* 2. one forward pass, every backend, identical numerics *)
  let model = Moccuda.Resnet.mini_model ~channels:8 in
  let images = Tensor.rand 42 [| 4; 3; 16; 16 |] in
  let targets = [| 1; 5; 2; 9 |] in
  Printf.printf "mini-ResNet forward loss per backend (must agree):\n";
  List.iter
    (fun b ->
      let loss = Moccuda.Resnet.mini_forward b model ~images ~targets in
      Printf.printf "  %-18s : %.6f\n" (Moccuda.Backends.name b) loss)
    Moccuda.Backends.all;
  (* 3. the kernel tier: the same forward pass where every tensor op is
     a transpiled mini-CUDA kernel run on the multicore engine, with the
     analytic cost model's prediction printed next to the measured time *)
  Printf.printf
    "\nCompiled kernel tier (every op transpiled through the full pipeline):\n";
  let batch = 2 and chw = 8 in
  let small_images = Tensor.rand 43 [| batch; 3; chw; chw |] in
  let small_targets = [| 1; 5 |] in
  let reference =
    Moccuda.Resnet.mini_forward Moccuda.Backends.Moccuda_expert model
      ~images:small_images ~targets:small_targets
  in
  let km = Moccuda.Kmgr.create ~domains:4 () in
  let ar = Moccuda.Arena.create () in
  let cm = Moccuda.Resnet.mini_compiled model ~batch ~hw:chw in
  let images_b = Moccuda.Graph.buffer_of_tensor small_images in
  let targets_b = Moccuda.Graph.buffer_of_ints small_targets in
  let time f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let run () =
    Moccuda.Resnet.run_mini_compiled cm km ar ~images:images_b
      ~targets:targets_b
  in
  let cold_loss, cold_s = time run in
  let warm_loss, warm_s = time run in
  let predicted =
    Tensorlib.Opcost.seconds Runtime.Machine.a64fx ~threads:4
      (Moccuda.Resnet.mini_cost cm)
  in
  let identical =
    Int64.equal (Int64.bits_of_float cold_loss) (Int64.bits_of_float reference)
    && Int64.equal
         (Int64.bits_of_float warm_loss)
         (Int64.bits_of_float reference)
  in
  Printf.printf "  loss (compiled kernels) : %.6f\n" cold_loss;
  Printf.printf "  loss (Tensorlib ref)    : %.6f  -> %s\n" reference
    (if identical then "bit-identical" else "MISMATCH");
  Printf.printf
    "  cold pass   : %8.4f s measured (compiles every kernel)\n" cold_s;
  Printf.printf
    "  warm pass   : %8.4f s measured (every launch a cache hit)\n" warm_s;
  Printf.printf
    "  cost model  : %8.2e s predicted on the A64FX model, 4 threads\n"
    predicted;
  Printf.printf "  %s\n"
    (Moccuda.Kmgr.stats_to_string (Moccuda.Kmgr.stats km));
  (* 4. the Fig. 15 sweep *)
  Printf.printf
    "\nResNet-50 synthetic training throughput (A64FX model, 12 threads):\n";
  List.iter
    (fun batch ->
      Printf.printf "  batch %2d:" batch;
      List.iter
        (fun b ->
          Printf.printf "  %s %6.2f img/s"
            (Moccuda.Backends.name b)
            (Moccuda.Resnet.throughput b Runtime.Machine.a64fx ~batch
               ~threads:12))
        [ Moccuda.Backends.One_dnn; Moccuda.Backends.Moccuda_polygeist ];
      print_newline ())
    [ 1; 4; 8; 12 ];
  if not identical then exit 1
