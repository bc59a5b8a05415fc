(* Suite-wide integration tests: every Rodinia benchmark (and matmul)
   compiles through the frontend, survives the full optimization + barrier
   lowering + OpenMP pipeline, and produces the same results as the
   original CUDA program executed under GPU semantics.  The hand-written
   OpenMP references must also compile and run. *)

open Ir

let all = Rodinia.Registry.all @ [ Rodinia.Registry.matmul ]

let compile_ok name src =
  match Cudafe.Codegen.compile src with
  | m -> begin
    match Verifier.verify_result m with
    | Ok () -> m
    | Error e -> Alcotest.failf "%s: IR does not verify: %s" name e
  end
  | exception Cudafe.Parser.Error e -> Alcotest.failf "%s: parse: %s" name e
  | exception Cudafe.Codegen.Error e -> Alcotest.failf "%s: codegen: %s" name e

let run_and_checksum ?(team_size = 3) (m : Op.op) (b : Rodinia.Bench_def.t) :
  float =
  let w = b.mk_workload b.test_size in
  let args = Rodinia.Bench_def.args_of_workload w in
  (match Interp.Eval.run ~team_size m b.entry args with
   | _ -> ()
   | exception Interp.Mem.Runtime_error e ->
     Alcotest.failf "%s: runtime error: %s" b.name e);
  Interp.Mem.checksum w.buffers

let test_differential (b : Rodinia.Bench_def.t) () =
  let reference = run_and_checksum (compile_ok b.name b.cuda_src) b in
  (* full Polygeist pipeline, inner serialization *)
  let m = compile_ok b.name b.cuda_src in
  Core.Cpuify.pipeline m;
  ignore (Core.Omp_lower.run m);
  Core.Canonicalize.run m;
  (match Verifier.verify_result m with
   | Ok () -> ()
   | Error e -> Alcotest.failf "%s: lowered IR does not verify: %s" b.name e);
  Alcotest.(check int)
    (b.name ^ ": barriers eliminated") 0
    (let n = ref 0 in
     Op.iter (fun o -> if o.Op.kind = Op.Barrier then incr n) m;
     !n);
  let got = run_and_checksum m b in
  if not (Float.equal reference got) then
    Alcotest.failf "%s: pipeline changed results: %.17g vs %.17g" b.name
      reference got;
  (* inner-parallel variant *)
  let m2 = compile_ok b.name b.cuda_src in
  Core.Cpuify.pipeline m2;
  ignore (Core.Omp_lower.run ~options:Core.Omp_lower.inner_par_options m2);
  let got2 = run_and_checksum m2 b in
  if not (Float.equal reference got2) then
    Alcotest.failf
      "%s: inner-parallel pipeline changed results: %.17g vs %.17g" b.name
      reference got2

let test_mcuda_differential (b : Rodinia.Bench_def.t) () =
  let reference = run_and_checksum (compile_ok b.name b.cuda_src) b in
  let m = compile_ok b.name b.cuda_src in
  Mcuda.lower m;
  let got = run_and_checksum m b in
  if not (Float.equal reference got) then
    Alcotest.failf "%s: MCUDA lowering changed results: %.17g vs %.17g" b.name
      reference got

let test_omp_reference (b : Rodinia.Bench_def.t) () =
  match b.omp_src with
  | None -> ()
  | Some src ->
    let m = compile_ok (b.name ^ "-omp") src in
    ignore (Core.Omp_lower.run m);
    let _ = run_and_checksum m b in
    ()

let tests =
  List.concat_map
    (fun (b : Rodinia.Bench_def.t) ->
      [ Alcotest.test_case (b.name ^ " differential") `Quick
          (test_differential b)
      ; Alcotest.test_case (b.name ^ " omp reference runs") `Quick
          (test_omp_reference b)
      ])
    all
  @ [ Alcotest.test_case "matmul mcuda differential" `Quick
        (test_mcuda_differential Rodinia.Registry.matmul)
    ]
