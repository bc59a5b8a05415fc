(* The fault-tolerant pass manager: every rung of the degradation ladder
   must engage under the matching injected fault, the degraded module
   must still compute the reference answer, and crash bundles must
   round-trip and replay deterministically.  Also the satellite
   guarantee: a cpuify fixpoint-budget exhaustion degrades to the
   conservative lowering instead of raising [Stuck]. *)

let read_fixture name =
  In_channel.with_open_text (Filename.concat "fixtures" name)
    In_channel.input_all

let reduce_src () = read_fixture "reduce.cu"

let compile src = Cudafe.Codegen.compile src

(* Interpret the reduce fixture: 128 inputs, 2 block sums. *)
let run_reduce m =
  let n = 128 in
  let inp =
    Interp.Mem.of_float_array
      (Array.init n (fun i -> float_of_int ((i * 7 mod 11) + 1) /. 3.0))
  in
  let out = Interp.Mem.of_float_array (Array.make 2 0.0) in
  let _ =
    Interp.Eval.run ~team_size:3 m "run"
      [ Interp.Mem.Buf inp; Interp.Mem.Buf out; Interp.Mem.Int n ]
  in
  Interp.Mem.float_contents out

let finish m = ignore (Core.Omp_lower.run m)

let reference () =
  let m = compile (reduce_src ()) in
  run_reduce m

let check_output what m =
  let got = run_reduce m in
  let want = reference () in
  Alcotest.(check (array (float 1e-4))) what want got

let rungs (r : Core.Passmgr.report) =
  List.map
    (fun (d : Core.Passmgr.degradation) ->
      (d.failure.stage, Core.Passmgr.rung_to_string d.recovered_to))
    r.degradations

let run ?options ?faults ?crash_dir m =
  match Core.Passmgr.run_pipeline ?options ?faults ?crash_dir m with
  | Ok report -> report
  | Error (_, f) ->
    Alcotest.failf "pipeline unrecoverable: %s"
      (Core.Passmgr.failure_to_string f)

let test_clean () =
  let m = compile (reduce_src ()) in
  let report = run m in
  Alcotest.(check bool) "not degraded" false (Core.Passmgr.degraded report);
  Alcotest.(check int) "no barriers" 0 (Core.Cpuify.count_barriers m);
  finish m;
  check_output "clean output" m

let test_raise_no_mincut () =
  let m = compile (reduce_src ()) in
  let report = run ~faults:[ ("cpuify", Core.Fault.Raise) ] m in
  Alcotest.(check (list (pair string string)))
    "recovered via no-mincut"
    [ ("cpuify", "no-mincut") ]
    (rungs report);
  Alcotest.(check bool) "no fallback" false report.fell_back;
  finish m;
  check_output "no-mincut output" m

let test_double_raise_fallback () =
  let m = compile (reduce_src ()) in
  let report =
    run ~faults:[ ("cpuify", Core.Fault.Raise); ("cpuify", Core.Fault.Raise) ] m
  in
  Alcotest.(check bool) "fell back" true report.fell_back;
  Alcotest.(check int) "no barriers" 0 (Core.Cpuify.count_barriers m);
  finish m;
  check_output "fallback output" m

let test_opt_raise_skip () =
  let m = compile (reduce_src ()) in
  let report = run ~faults:[ ("licm", Core.Fault.Raise) ] m in
  Alcotest.(check (list (pair string string)))
    "licm skipped"
    [ ("licm", "skip") ]
    (rungs report);
  finish m;
  check_output "skip output" m

let test_corrupt_caught_by_verifier () =
  let m = compile (reduce_src ()) in
  let report = run ~faults:[ ("cse", Core.Fault.Corrupt) ] m in
  Alcotest.(check (list (pair string string)))
    "cse skipped"
    [ ("cse", "skip") ]
    (rungs report);
  (match report.failures with
   | f :: _ ->
     Alcotest.(check bool)
       "verifier caught the corruption" true
       (String.length f.exn_text >= 22
       && String.sub f.exn_text 0 22 = "IR verification failed")
   | [] -> Alcotest.fail "no failure recorded");
  (* the rollback must leave verifiable IR behind *)
  Ir.Verifier.verify m;
  finish m;
  check_output "corrupt-rollback output" m

let test_exhaust_skip () =
  let m = compile (reduce_src ()) in
  let report = run ~faults:[ ("mem2reg", Core.Fault.Exhaust) ] m in
  Alcotest.(check (list (pair string string)))
    "mem2reg skipped"
    [ ("mem2reg", "skip") ]
    (rungs report);
  (match report.failures with
   | f :: _ ->
     Alcotest.(check bool)
       "fuel exhaustion reported" true
       (let s = f.exn_text in
        let has sub =
          let n = String.length sub in
          let rec go i =
            i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
          in
          go 0
        in
        has "Exhausted" || has "fuel")
   | [] -> Alcotest.fail "no failure recorded");
  finish m;
  check_output "exhaust output" m

(* Satellite: a kernel that exhausts the cpuify fixpoint budget must
   degrade to the conservative lowering, never escape as [Stuck]. *)
let test_budget_degrades_not_stuck () =
  let options = { Core.Cpuify.default_options with opt_budget = 1 } in
  let m = compile (reduce_src ()) in
  let report =
    try run ~options m
    with Core.Cpuify.Stuck msg -> Alcotest.failf "Stuck escaped: %s" msg
  in
  Alcotest.(check bool) "degraded" true (Core.Passmgr.degraded report);
  Alcotest.(check bool) "fell back to no-opt" true report.fell_back;
  Alcotest.(check int) "no barriers" 0 (Core.Cpuify.count_barriers m);
  finish m;
  check_output "budget-exhausted output" m

let test_snapshot_restore () =
  let m = compile (reduce_src ()) in
  let snap = Ir.Clone.snapshot m in
  Alcotest.(check bool)
    "snapshot structurally equal" true
    (Ir.Clone.structural_equal m snap);
  Core.Cpuify.run m;
  Alcotest.(check bool)
    "mutation breaks equality" false
    (Ir.Clone.structural_equal m snap);
  Ir.Clone.restore ~into:m snap;
  Alcotest.(check bool)
    "restore brings it back" true
    (Ir.Clone.structural_equal m snap);
  (* a snapshot survives being restored from more than once *)
  Core.Cpuify.run m;
  Ir.Clone.restore ~into:m snap;
  Alcotest.(check bool)
    "snapshot reusable" true
    (Ir.Clone.structural_equal m snap);
  check_output "restored module still runs" m

(* Snapshots share the module's values, not its records or arrays:
   whatever a pass does to the live module — new operand arrays or
   in-place writes, rewritten region bodies and args, attrs, locs —
   must leave the snapshot alone, and restoring from it must bring the
   module back exactly, as often as asked. *)
let test_snapshot_aliasing () =
  let m = compile (reduce_src ()) in
  let pre = Ir.Clone.clone_op_fresh m in
  let snap = Ir.Clone.snapshot m in
  let snap_text = Ir.Printer.op_to_string snap in
  let locs op =
    let acc = ref [] in
    Ir.Op.iter (fun (o : Ir.Op.op) -> acc := o.loc :: !acc) op;
    !acc
  in
  let pre_locs = locs m in
  let fresh (v : Ir.Value.t) = Ir.Value.fresh v.typ in
  let mutate () =
    let ops = ref [] in
    Ir.Op.iter (fun o -> ops := o :: !ops) m;
    List.iter
      (fun (o : Ir.Op.op) ->
        if Array.length o.operands > 0 then begin
          o.operands.(0) <- fresh o.operands.(0);
          o.operands <- Array.map fresh o.operands
        end;
        if Array.length o.results > 0 then o.results.(0) <- fresh o.results.(0);
        Array.iter
          (fun (r : Ir.Op.region) ->
            if Array.length r.rargs > 0 then r.rargs.(0) <- fresh r.rargs.(0);
            r.rargs <- Array.map fresh r.rargs;
            r.body <- List.rev r.body)
          o.regions;
        Ir.Op.set_attr o "mutated" (Ir.Op.Abool true);
        o.loc <- Some (Ir.Srcloc.v ~line:999 ~col:1))
      !ops;
    Alcotest.(check bool)
      "mutation breaks equality" false
      (Ir.Clone.structural_equal m pre)
  in
  let check_restored round =
    let what s = Printf.sprintf "%s (restore %d)" s round in
    Alcotest.(check bool)
      (what "module equals its pre-mutation clone")
      true
      (Ir.Clone.structural_equal m pre);
    Alcotest.(check bool)
      (what "locs restored") true
      (locs m = pre_locs);
    Alcotest.(check string)
      (what "module prints as the snapshot, same values")
      snap_text (Ir.Printer.op_to_string m);
    Alcotest.(check bool)
      (what "snapshot equals the pre-mutation clone")
      true
      (Ir.Clone.structural_equal snap pre);
    Alcotest.(check string)
      (what "snapshot unchanged") snap_text
      (Ir.Printer.op_to_string snap);
    Alcotest.(check bool) (what "snapshot locs unchanged") true
      (locs snap = pre_locs)
  in
  mutate ();
  Ir.Clone.restore ~into:m snap;
  check_restored 1;
  mutate ();
  Ir.Clone.restore ~into:m snap;
  check_restored 2;
  Ir.Verifier.verify m;
  check_output "restored module still runs" m

(* Two domains compiling at once must never hand out the same value
   id: a duplicate surfaces as "value ... defined twice" and degrades
   the pipeline. *)
let test_concurrent_compiles () =
  let programs = Rodinia.Registry.all @ [ Rodinia.Registry.matmul ] in
  let compile_all () =
    List.concat_map
      (fun _ ->
        List.map
          (fun (b : Rodinia.Bench_def.t) ->
            let m = compile b.cuda_src in
            let outcome =
              match Core.Passmgr.run_pipeline m with
              | Ok r when not (Core.Passmgr.degraded r) ->
                finish m;
                Core.Canonicalize.run m;
                Result.map_error
                  (fun e -> "does not verify: " ^ e)
                  (Ir.Verifier.verify_result m)
              | Ok r -> Error ("degraded:\n" ^ Core.Passmgr.report_to_string r)
              | Error (_, f) -> Error (Core.Passmgr.failure_to_string f)
            in
            (b.name, outcome))
          programs)
      (List.init 5 Fun.id)
  in
  let lanes = List.init 2 (fun _ -> Domain.spawn compile_all) in
  List.iter
    (fun lane ->
      List.iter
        (fun (name, outcome) ->
          match outcome with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" name e)
        (Domain.join lane))
    lanes

let test_bundle_roundtrip () =
  let b =
    { Core.Crashbundle.version = Core.Crashbundle.current_version
    ; stage = "cpuify"
    ; stage_index = 5
    ; rung = "no-mincut"
    ; exn_text = "Fault.Injected(\"cpuify:raise\")"
    ; backtrace = "Raised at Foo.bar\nCalled from Baz.qux"
    ; repro = "polygeist-cpu --cpuify full x.cu"
    ; options = { Core.Cpuify.default_options with opt_budget = 7 }
    ; faults = [ ("cpuify", Core.Fault.Raise); ("cse", Core.Fault.Corrupt) ]
    ; runtime =
        Some
          { Core.Crashbundle.rexec = "parallel"
          ; rdomains = 4
          ; rschedule = "dynamic"
          ; rchunk = Some 8
          ; rseed = None
          ; rtimeout_ms = Some 500
          }
    ; serve =
        Some
          { Core.Crashbundle.sduration_ms = 1234
          ; sretries = 2
          ; squeue_depth = 5
          }
    ; source = "__global__ void k() {}\n"
    ; ir_before = "module {\n}\n"
    }
  in
  match Core.Crashbundle.of_string (Core.Crashbundle.to_string b) with
  | Error e -> Alcotest.failf "bundle did not parse back: %s" e
  | Ok b' ->
    Alcotest.(check string) "stage" b.stage b'.stage;
    Alcotest.(check int) "stage_index" b.stage_index b'.stage_index;
    Alcotest.(check string) "rung" b.rung b'.rung;
    Alcotest.(check string) "exn_text" b.exn_text b'.exn_text;
    (* serialization normalizes the trailing newline *)
    Alcotest.(check string) "backtrace" (String.trim b.backtrace)
      (String.trim b'.backtrace);
    Alcotest.(check string) "repro" b.repro b'.repro;
    Alcotest.(check string) "options"
      (Core.Crashbundle.options_to_string b.options)
      (Core.Crashbundle.options_to_string b'.options);
    Alcotest.(check string) "faults"
      (Core.Fault.plan_to_string b.faults)
      (Core.Fault.plan_to_string b'.faults);
    (match b.runtime, b'.runtime with
     | Some r, Some r' ->
       Alcotest.(check string) "runtime"
         (Core.Crashbundle.runtime_to_string r)
         (Core.Crashbundle.runtime_to_string r')
     | _ -> Alcotest.fail "runtime config lost in round trip");
    (match b.serve, b'.serve with
     | Some s, Some s' ->
       Alcotest.(check string) "serve"
         (Core.Crashbundle.serve_to_string s)
         (Core.Crashbundle.serve_to_string s')
     | _ -> Alcotest.fail "serve config lost in round trip");
    Alcotest.(check int) "version" Core.Crashbundle.current_version b'.version;
    Alcotest.(check string) "source" b.source b'.source;
    Alcotest.(check string) "ir_before" b.ir_before b'.ir_before

(* Bundles written before the format grew the runtime line (v1) must
   still parse: version 1, no runtime configuration. *)
let test_bundle_v1_accepted () =
  let v1_text =
    String.concat "\n"
      [ "polygeist-cpu crash bundle v1"
      ; "stage: cpuify"
      ; "stage-index: 5"
      ; "rung: no-mincut"
      ; "exception: Fault.Injected(\"cpuify:raise\")"
      ; "repro: polygeist-cpu old.cu -cuda-lower"
      ; "options: mincut=true,barrier-elim=true,mem2reg=true,licm=true,budget=7"
      ; "faults: cpuify:raise"
      ; "=== source ==="
      ; "__global__ void k() {}"
      ; "=== pre-stage ir ==="
      ; "module {"
      ; "}"
      ]
  in
  match Core.Crashbundle.of_string v1_text with
  | Error e -> Alcotest.failf "v1 bundle rejected: %s" e
  | Ok b ->
    Alcotest.(check int) "version" 1 b.Core.Crashbundle.version;
    Alcotest.(check string) "stage" "cpuify" b.Core.Crashbundle.stage;
    Alcotest.(check bool) "no runtime cfg" true
      (b.Core.Crashbundle.runtime = None);
    Alcotest.(check string) "faults" "cpuify:raise"
      (Core.Fault.plan_to_string b.Core.Crashbundle.faults)

(* Bundles written before the format grew the serve line (v2) must still
   parse: version 2, runtime configuration kept, no serve context. *)
let test_bundle_v2_accepted () =
  let v2_text =
    String.concat "\n"
      [ "polygeist-cpu crash bundle v2"
      ; "stage: runtime"
      ; "stage-index: 0"
      ; "rung: runtime"
      ; "exception: injected fault"
      ; "repro: polygeist-cpu old.cu -cuda-lower -run main --exec parallel"
      ; "options: mincut=true,barrier-elim=true,mem2reg=true,licm=true,budget=7"
      ; "faults: runtime:raise"
      ; "runtime: exec=parallel,domains=4,schedule=static,chunk=-,seed=-,timeout-ms=500"
      ; "=== source ==="
      ; "__global__ void k() {}"
      ; "=== pre-stage ir ==="
      ; "module {"
      ; "}"
      ]
  in
  match Core.Crashbundle.of_string v2_text with
  | Error e -> Alcotest.failf "v2 bundle rejected: %s" e
  | Ok b ->
    Alcotest.(check int) "version" 2 b.Core.Crashbundle.version;
    Alcotest.(check bool) "runtime cfg kept" true
      (b.Core.Crashbundle.runtime <> None);
    Alcotest.(check bool) "no serve cfg" true (b.Core.Crashbundle.serve = None)

(* A bundle written by the pass manager replays deterministically:
   recompiling the embedded source under the recorded options and fault
   plan reproduces the same failure (stage, rung, exception). *)
let test_bundle_replay () =
  let dir = Filename.temp_file "passmgr" ".crash" in
  Sys.remove dir;
  let src = reduce_src () in
  let faults = [ ("cpuify", Core.Fault.Raise) ] in
  let m = compile src in
  let report =
    match
      Core.Passmgr.run_pipeline ~faults ~crash_dir:dir ~source:src
        ~repro:"test replay" m
    with
    | Ok r -> r
    | Error (r, _) -> r
  in
  let path =
    match report.bundles with
    | [ p ] -> p
    | l -> Alcotest.failf "expected exactly one bundle, got %d" (List.length l)
  in
  let b =
    match Core.Crashbundle.read path with
    | Ok b -> b
    | Error e -> Alcotest.failf "unreadable bundle: %s" e
  in
  let m2 = compile b.source in
  let report2 =
    match Core.Passmgr.run_pipeline ~options:b.options ~faults:b.faults m2 with
    | Ok r -> r
    | Error (r, _) -> r
  in
  let reproduced =
    List.exists
      (fun (f : Core.Passmgr.stage_failure) ->
        f.stage = b.stage
        && Core.Passmgr.rung_to_string f.rung = b.rung
        && f.exn_text = b.exn_text)
      report2.failures
  in
  Alcotest.(check bool) "failure reproduced" true reproduced;
  (* clean up the bundle directory *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Unrecoverable: even the fallback faulted out -> Error, not an
   uncaught exception.  Two cpuify entries take down both split rungs,
   the third fault fires inside the fallback itself. *)
let test_unrecoverable_is_error () =
  let m = compile (reduce_src ()) in
  let faults =
    [ ("cpuify", Core.Fault.Raise)
    ; ("cpuify", Core.Fault.Raise)
    ; ("no-opt-fallback", Core.Fault.Raise)
    ]
  in
  match Core.Passmgr.run_pipeline ~faults m with
  | Ok _ -> Alcotest.fail "expected the fallback itself to fail"
  | Error (report, f) ->
    Alcotest.(check string) "final failure is the fallback" "no-opt-fallback"
      f.stage;
    Alcotest.(check int) "three failures recorded" 3
      (List.length report.failures)

let tests =
  [ Alcotest.test_case "clean pipeline: no degradation" `Quick test_clean
  ; Alcotest.test_case "cpuify raise -> no-mincut rung" `Quick
      test_raise_no_mincut
  ; Alcotest.test_case "cpuify raise x2 -> whole-pipeline fallback" `Quick
      test_double_raise_fallback
  ; Alcotest.test_case "optimization raise -> skip" `Quick test_opt_raise_skip
  ; Alcotest.test_case "corrupt caught by verifier -> skip" `Quick
      test_corrupt_caught_by_verifier
  ; Alcotest.test_case "fuel exhaust -> skip" `Quick test_exhaust_skip
  ; Alcotest.test_case "budget exhaustion degrades, not Stuck" `Quick
      test_budget_degrades_not_stuck
  ; Alcotest.test_case "snapshot / restore / structural_equal" `Quick
      test_snapshot_restore
  ; Alcotest.test_case "snapshot shares values, never records or arrays"
      `Quick test_snapshot_aliasing
  ; Alcotest.test_case "two domains compile the suite concurrently" `Quick
      test_concurrent_compiles
  ; Alcotest.test_case "crash bundle round-trip" `Quick test_bundle_roundtrip
  ; Alcotest.test_case "v2 crash bundle still accepted" `Quick
      test_bundle_v2_accepted
  ; Alcotest.test_case "v1 crash bundle still accepted" `Quick
      test_bundle_v1_accepted
  ; Alcotest.test_case "crash bundle replays deterministically" `Quick
      test_bundle_replay
  ; Alcotest.test_case "unrecoverable pipeline returns Error" `Quick
      test_unrecoverable_is_error
  ]
