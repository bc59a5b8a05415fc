(* Tests of the MHP barrier-interval dataflow (lib/analysis/mhp) and of
   the analysis-guided repair search built on it (lib/core/repair): the
   interval structure of loop-carried and guarded barriers, the
   redundant-barrier query, and the three seeded racy fixtures whose
   known-good minimal repair the search must find — validated against
   the differential oracle like the driver's --repair path. *)

open Ir
open Analysis

let build_kernel src =
  let m = Cudafe.Codegen.compile src in
  Core.Cpuify.cleanup m;
  m

let find_block_par m =
  let found = ref None in
  Op.iter
    (fun o -> if o.Op.kind = Op.Parallel Op.Block then found := Some o)
    m;
  Option.get !found

let find_barriers m =
  let acc = ref [] in
  Op.iter (fun o -> if o.Op.kind = Op.Barrier then acc := o :: !acc) m;
  List.rev !acc

let analyze m =
  let par = find_block_par m in
  let info = Info.build m in
  let ctx = Effects.make_ctx ~modul:m ~par info in
  Mhp.analyze ctx par

let read_fixture = Fixture.read

(* A barrier inside a loop closes the entry interval on the unshifted
   path and its own interval again through the back edge — the
   loop-carried interval structure. *)
let test_loop_carried_intervals () =
  let m =
    build_kernel
      {|
__global__ void k(float* out, float* in) {
  __shared__ float s[8];
  int t = threadIdx.x;
  s[t] = in[t];
  for (int i = 0; i < 3; i++) {
    __syncthreads();
    s[t] = s[t] * 0.5f;
  }
  out[t] = s[t];
}
void launch(float* out, float* in) { k<<<1, 8>>>(out, in); }
|}
  in
  let mhp = analyze m in
  Alcotest.(check int) "entry + one barrier" 2 (Mhp.interval_count mhp);
  match find_barriers m with
  | [ b ] -> begin
    Alcotest.(check (option int)) "barrier opens interval 1" (Some 1)
      (Mhp.barrier_opens mhp b);
    match Mhp.barrier_closes mhp b with
    | Some (unshifted, shifted) ->
      Alcotest.(check (list int)) "entry interval arrives unshifted" [ 0 ]
        unshifted;
      Alcotest.(check (list int)) "own interval arrives via back edge" [ 1 ]
        shifted
    | None -> Alcotest.fail "barrier not reached by the dataflow"
  end
  | l -> Alcotest.failf "expected 1 barrier, got %d" (List.length l)

(* A barrier under a (block-uniform) branch splits interval membership:
   ops after the join are reachable both with the entry interval (branch
   skipped) and the barrier's interval (branch taken). *)
let test_guarded_barrier_splits () =
  let m =
    build_kernel
      {|
__global__ void k(float* out, float* in) {
  __shared__ float s[8];
  int t = threadIdx.x;
  int b = blockIdx.x;
  s[t] = in[b * 8 + t];
  if (b % 2 == 0) {
    __syncthreads();
  }
  out[b * 8 + t] = s[t];
}
void launch(float* out, float* in) { k<<<2, 8>>>(out, in); }
|}
  in
  let mhp = analyze m in
  Alcotest.(check int) "entry + one barrier" 2 (Mhp.interval_count mhp);
  let out_leaf =
    List.find
      (fun (l : Mhp.leaf) ->
        List.exists
          (fun (a : Effects.access) ->
            match a.Effects.base with
            | Some (v : Value.t) -> v.Value.name = Some "out"
            | None -> false)
          l.Mhp.l_accs)
      (Mhp.leaves mhp)
  in
  match Mhp.intervals_at mhp out_leaf.Mhp.l_op with
  | Some (unshifted, _) ->
    Alcotest.(check (list int)) "both paths reach the final store" [ 0; 1 ]
      unshifted
  | None -> Alcotest.fail "final store not reached by the dataflow"

(* Back-to-back barriers: each one alone fences the write from the
   mirrored read, so barrier elimination removes one of the pair (and
   re-analyzes before the next); across a single barrier the conflict is
   real and nothing is removed. *)
let test_redundant_barriers () =
  let doubled =
    build_kernel
      {|
__global__ void k(float* out, float* in) {
  __shared__ float s[8];
  int t = threadIdx.x;
  s[t] = in[t];
  __syncthreads();
  __syncthreads();
  out[t] = s[7 - t];
}
void launch(float* out, float* in) { k<<<1, 8>>>(out, in); }
|}
  in
  Alcotest.(check int) "one of the pair is removed" 1
    (Core.Barrier_elim.run doubled);
  let single =
    build_kernel
      {|
__global__ void k(float* out, float* in) {
  __shared__ float s[8];
  int t = threadIdx.x;
  s[t] = in[t];
  __syncthreads();
  out[t] = s[7 - t];
}
void launch(float* out, float* in) { k<<<1, 8>>>(out, in); }
|}
  in
  Alcotest.(check int) "a load-bearing barrier is kept" 0
    (Core.Barrier_elim.run single)

(* The seeded racy fixtures: the sanitizer must flag each, and the
   repair search must find the known-good minimal fix — one inserted
   barrier — that the differential oracle then validates against the
   serial interpreter. *)
let dirty m =
  List.filter Core.Repair.target_diag
    (Kernelcheck.check_module ~report_possible:true m)

let test_fixture_repair name =
  let m = build_kernel (read_fixture name) in
  Alcotest.(check bool) (name ^ " is sanitizer-dirty") true (dirty m <> []);
  let validate m' =
    match Fuzz.Oracle.run_module m' with
    | Fuzz.Oracle.Passed -> Ok ()
    | Fuzz.Oracle.Failed f -> Error (Fuzz.Oracle.failure_to_string f)
  in
  let out = Core.Repair.run ~validate m in
  match out.Core.Repair.status with
  | Core.Repair.Repaired edits ->
    Alcotest.(check int) (name ^ " minimal repair is one edit") 1
      (List.length edits);
    List.iter
      (fun (e : Core.Repair.edit) ->
        Alcotest.(check bool) (name ^ " repair inserts a barrier") true
          (e.Core.Repair.e_action = `Insert))
      edits;
    Alcotest.(check int) (name ^ " sanitizer-clean after repair") 0
      (List.length (dirty m))
  | Core.Repair.Clean -> Alcotest.failf "%s came out clean" name
  | Core.Repair.Failed why -> Alcotest.failf "%s not repaired: %s" name why

let test_repair_raw () = test_fixture_repair "missing_raw_barrier.cu"
let test_repair_loop () = test_fixture_repair "loop_race.cu"
let test_repair_war () = test_fixture_repair "missing_war_barrier.cu"

let tests =
  [ Alcotest.test_case "loop-carried barrier intervals" `Quick
      test_loop_carried_intervals
  ; Alcotest.test_case "guarded barrier splits membership" `Quick
      test_guarded_barrier_splits
  ; Alcotest.test_case "redundant barrier collapse" `Quick
      test_redundant_barriers
  ; Alcotest.test_case "RAW fixture repaired with one barrier" `Quick
      test_repair_raw
  ; Alcotest.test_case "loop-race fixture repaired with one barrier" `Quick
      test_repair_loop
  ; Alcotest.test_case "WAR fixture repaired with one barrier" `Quick
      test_repair_war
  ]
