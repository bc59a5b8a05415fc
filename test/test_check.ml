(* Tests of the static kernel checker (lib/analysis/check): the seeded-bug
   fixtures must be flagged at exact source locations, every Rodinia
   kernel must come out clean, and checker-clean kernels must execute to
   completion under the fiber interpreter — the run-time counterpart of
   the absence of divergence diagnostics. *)

open Ir
open Analysis

let cleanup m =
  Core.Canonicalize.run m;
  Core.Cse.run m;
  ignore (Core.Mem2reg.run m);
  Core.Canonicalize.run m

let check_src src =
  let m = Cudafe.Codegen.compile src in
  cleanup m;
  Kernelcheck.check_module m

let read_fixture name =
  In_channel.with_open_text (Filename.concat "fixtures" name)
    In_channel.input_all

let loc_str = function
  | Some l -> Srcloc.to_string l
  | None -> "<none>"

(* racy.cu line 5: [out[0] = s[t];] — every thread writes the same global
   address with a different value, no barrier in between. *)
let test_racy_fixture () =
  let diags = check_src (read_fixture "racy.cu") in
  match List.filter Diag.is_error diags with
  | [ d ] ->
    Alcotest.(check string) "check name" "race" d.Diag.check;
    Alcotest.(check string) "location" "5:3" (loc_str d.Diag.loc)
  | l -> Alcotest.failf "expected exactly 1 error, got %d" (List.length l)

(* divergent.cu line 6: [__syncthreads()] under [if (t < 4)]. *)
let test_divergent_fixture () =
  let diags = check_src (read_fixture "divergent.cu") in
  match List.filter Diag.is_error diags with
  | [ d ] -> begin
    Alcotest.(check string) "check name" "divergence" d.Diag.check;
    Alcotest.(check string) "location" "6:5" (loc_str d.Diag.loc);
    match d.Diag.notes with
    | [ n ] ->
      Alcotest.(check string) "note points at the guard" "5:3"
        (loc_str n.Diag.n_loc)
    | l -> Alcotest.failf "expected 1 note, got %d" (List.length l)
  end
  | l -> Alcotest.failf "expected exactly 1 error, got %d" (List.length l)

let test_shared_init () =
  (* a shared array read but never written: error *)
  let diags =
    check_src
      {|
__global__ void k(float* out) {
  __shared__ float s[64];
  int t = threadIdx.x;
  out[t] = s[t];
}
void run(float* out) { k<<<1, 64>>>(out); }
|}
  in
  Alcotest.(check bool) "never-written read is an error" true
    (List.exists
       (fun (d : Diag.t) -> d.Diag.check = "shared-init" && Diag.is_error d)
       diags);
  (* written, but only at a later program point: warning, not error *)
  let diags =
    check_src
      {|
__global__ void k(float* out) {
  __shared__ float s[64];
  int t = threadIdx.x;
  out[t] = s[t];
  __syncthreads();
  s[t] = out[t];
}
void run(float* out) { k<<<1, 64>>>(out); }
|}
  in
  let si = List.filter (fun (d : Diag.t) -> d.Diag.check = "shared-init") diags in
  Alcotest.(check int) "one shared-init diagnostic" 1 (List.length si);
  Alcotest.(check bool) "read-before-first-write is a warning" false
    (Diag.is_error (List.hd si));
  (* the canonical load-compute-store pattern stays silent *)
  let diags =
    check_src
      {|
__global__ void k(float* out) {
  __shared__ float s[64];
  int t = threadIdx.x;
  s[t] = out[t];
  __syncthreads();
  out[t] = s[63 - t];
}
void run(float* out) { k<<<1, 64>>>(out); }
|}
  in
  Alcotest.(check int) "initialized use is clean" 0 (List.length diags)

(* The other end of the location-threading chain: the printer can show
   the frontend positions (off by default, so golden IR tests are
   unaffected). *)
let test_printer_locs () =
  let contains s sub =
    let n = String.length sub in
    let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  let m = Cudafe.Codegen.compile (read_fixture "racy.cu") in
  Alcotest.(check bool) "printed IR carries loc(5:3)" true
    (contains (Printer.op_to_string ~locs:true m) "loc(5:3)");
  Alcotest.(check bool) "locations hidden by default" false
    (contains (Printer.op_to_string m) "loc(")

let all_benches () = Rodinia.Registry.matmul :: Rodinia.Registry.all

let test_rodinia_clean () =
  List.iter
    (fun (b : Rodinia.Bench_def.t) ->
      let m = Cudafe.Codegen.compile b.cuda_src in
      cleanup m;
      match Kernelcheck.check_module m with
      | [] -> ()
      | d :: _ ->
        Alcotest.failf "%s not clean: %s" b.name
          (Diag.to_string ~file:(b.name ^ ".cu") d))
    (all_benches ())

(* Differential: a kernel the checker accepts must run to completion
   under the interpreter (a divergent barrier would deadlock the fiber
   scheduler, a verifier-visible break would raise). *)
let test_clean_kernels_execute () =
  List.iter
    (fun (b : Rodinia.Bench_def.t) ->
      let m = Cudafe.Codegen.compile b.cuda_src in
      cleanup m;
      Alcotest.(check int)
        (b.name ^ " checker-clean")
        0
        (List.length (Kernelcheck.check_module m));
      let w = b.mk_workload b.test_size in
      let _, _ =
        Interp.Eval.run m b.entry (Rodinia.Bench_def.args_of_workload w)
      in
      ())
    (all_benches ())

(* A warp shuffle stages each lane's value in a scratch buffer at the
   lane index [tx + BX * (ty + tz)].  Over a 1-D block that index is
   injective, so two staging writes meet only within one thread: no
   diagnostic, not even a possible race. *)
let test_shuffle_scratch_not_racy () =
  let m =
    Cudafe.Codegen.compile
      {|
__global__ void k(float* out, float* in) {
  int t = threadIdx.x;
  out[t] = __shfl_down_sync(0xffffffff, in[t], 1);
}
void launch(float* out, float* in) { k<<<1, 8>>>(out, in); }
|}
  in
  cleanup m;
  Alcotest.(check (list string))
    "no diagnostics" []
    (List.map
       (Diag.to_string ~file:"k.cu")
       (Kernelcheck.check_module ~report_possible:true m))

(* Thread (0, 0) writes [s[tx]] and threads (1, y) read [s[tx]]: equal
   addresses would force [tx] equal, which the two guards pin apart, so
   the pair never meets.  With [s[ty]] on both sides thread (0, 0)
   writes [s[0]] and thread (1, 0) reads it: a definite race. *)
let test_pinned_apart () =
  let src idx =
    Printf.sprintf
      {|
__global__ void k(float* out, float* in) {
  __shared__ float s[8];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  s[tx + 2 * ty] = in[tx + 2 * ty];
  __syncthreads();
  if (tx == 0) {
    if (ty == 0) {
      s[%s] = 1.0f;
    }
  }
  if (tx == 1) {
    out[ty] = s[%s];
  }
}
void run(float* out, float* in) { k<<<1, dim3(2, 2)>>>(out, in); }
|}
      idx idx
  in
  let races idx =
    List.filter
      (fun (d : Diag.t) -> d.Diag.check = "race")
      (check_src (src idx))
  in
  Alcotest.(check int) "pinned apart: no race" 0 (List.length (races "tx"));
  match races "ty" with
  | [ d ] ->
    Alcotest.(check bool) "free iv: definite race" true (Diag.is_error d);
    Alcotest.(check string) "at the write" "10:7" (loc_str d.Diag.loc)
  | l -> Alcotest.failf "expected 1 race, got %d" (List.length l)

let tests =
  [ Alcotest.test_case "racy fixture flagged at 5:3" `Quick test_racy_fixture
  ; Alcotest.test_case "divergent fixture flagged at 6:5" `Quick
      test_divergent_fixture
  ; Alcotest.test_case "shared-init tiers" `Quick test_shared_init
  ; Alcotest.test_case "printer location flag" `Quick test_printer_locs
  ; Alcotest.test_case "rodinia kernels clean" `Quick test_rodinia_clean
  ; Alcotest.test_case "clean kernels execute" `Quick
      test_clean_kernels_execute
  ; Alcotest.test_case "shuffle scratch is not a race" `Quick
      test_shuffle_scratch_not_racy
  ; Alcotest.test_case "guards pinning a forced iv apart" `Quick
      test_pinned_apart
  ]
