(* Smoke test for the MocCUDA kernel tier: runs the miniature network
   forward pass with every op as a transpiled kernel, checks the loss
   bitwise against the Tensorlib reference, and verifies the warm-cache
   and arena-reuse invariants.  Exits non-zero on any failure. *)

open Moccuda
open Tensorlib

let failures = ref 0

let check name ok =
  if ok then Printf.printf "  ok: %s\n%!" name
  else begin
    incr failures;
    Printf.printf "  FAIL: %s\n%!" name
  end

let bits (f : float) = Int64.bits_of_float f

let () =
  let batch = 2 and hw = 6 and channels = 4 in
  let m = Resnet.mini_model ~channels in
  let images = Tensor.rand 42 [| batch; 3; hw; hw |] in
  let targets = [| 3; 7 |] in
  let reference =
    Resnet.mini_forward Backends.Moccuda_expert m ~images ~targets
  in

  let km = Kmgr.create ~domains:4 () in
  let ar = Arena.create () in
  let cm = Resnet.mini_compiled m ~batch ~hw in
  let images_b = Graph.buffer_of_tensor images in
  let targets_b = Graph.buffer_of_ints targets in

  Printf.printf "cold forward pass (4 domains):\n%!";
  let cold = Resnet.run_mini_compiled cm km ar ~images:images_b ~targets:targets_b in
  check "loss is finite" (Float.is_finite cold);
  check
    (Printf.sprintf "loss bitwise equal to Tensorlib reference (%.17g)" cold)
    (Int64.equal (bits cold) (bits reference));
  let s = Kmgr.stats km in
  let cold_compiles = s.Kmgr.compiles in
  check "cold pass compiled kernels" (cold_compiles > 0);
  check "no kernel degraded off the primary rung" (s.Kmgr.degraded = 0);
  check "no interpreter fallbacks" (s.Kmgr.interp_fallbacks = 0);
  let cold_allocs = Arena.allocs ar in

  Printf.printf "warm forward pass:\n%!";
  let warm = Resnet.run_mini_compiled cm km ar ~images:images_b ~targets:targets_b in
  check "warm loss identical" (Int64.equal (bits warm) (bits cold));
  let s = Kmgr.stats km in
  check
    (Printf.sprintf "warm pass recompiled nothing (%d compiles)"
       s.Kmgr.compiles)
    (s.Kmgr.compiles = cold_compiles);
  check "warm pass hit the cache" (s.Kmgr.hits > 0);
  check
    (Printf.sprintf "warm pass allocated no tensors (%d allocs, %d reuses)"
       (Arena.allocs ar) (Arena.reuses ar))
    (Arena.allocs ar = cold_allocs && Arena.reuses ar > 0);

  Printf.printf "single-domain forward pass:\n%!";
  let km1 = Kmgr.create ~domains:1 () in
  let ar1 = Arena.create () in
  let one =
    Resnet.run_mini_compiled cm km1 ar1 ~images:images_b ~targets:targets_b
  in
  check "1-domain loss identical to 4-domain" (Int64.equal (bits one) (bits cold));

  Printf.printf "ResNet layer sweep (first 3 layers, capped dims):\n%!";
  List.iteri
    (fun i l ->
      let r = Resnet.run_conv_layer km ar ~batch:1 l in
      check
        (Printf.sprintf "layer %d (%dx%dx%d k%d s%d) checksum parity" i
           r.Resnet.lr_shape.Conv.c r.Resnet.lr_shape.Conv.h
           r.Resnet.lr_shape.Conv.k r.Resnet.lr_shape.Conv.r
           r.Resnet.lr_shape.Conv.p.Conv.stride)
        (Int64.equal (bits r.Resnet.lr_checksum)
           (bits r.Resnet.lr_ref_checksum)))
    (List.filteri (fun i _ -> i < 3) Resnet.conv_layers);

  Printf.printf "%s\n" (Kmgr.stats_to_string (Kmgr.stats km));
  if !failures > 0 then begin
    Printf.printf "moccuda smoke: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "moccuda smoke: all checks passed"
