(* The fault-tolerant pass manager: every rung of the degradation ladder
   must engage under the matching injected fault, the degraded module
   must still compute the reference answer, and crash bundles must
   round-trip and replay deterministically. *)

let read_fixture = Fixture.read

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

let run ?faults ?crash_dir m =
  match Core.Passmgr.run_pipeline ?faults ?crash_dir m with
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

(* The cpuify fixpoint budget is a constant of the pass manager; its
   exhaustion is a structured error, never [Stuck].  How the ladder
   handles a cpuify failure is "cpuify raise x2 -> whole-pipeline
   fallback". *)
let test_budget_is_error () =
  let m = compile (reduce_src ()) in
  match Core.Cpuify.run_result ~budget:1 m with
  | Error (Core.Cpuify.Did_not_converge { budget = 1 }) -> ()
  | Error e -> Alcotest.failf "wrong error: %s" (Core.Cpuify.error_to_string e)
  | Ok () -> Alcotest.fail "budget 1 converged"
  | exception Core.Cpuify.Stuck msg -> Alcotest.failf "Stuck escaped: %s" msg

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

(* One bundle of each kind, as the four writers fill them in. *)
let sample_run : Core.Crashbundle.run =
  { entry = Some "run"
  ; sizes = [ 128; 7 ]
  ; mode = "inner-parallel"
  ; exec = "parallel"
  ; domains = 4
  ; schedule = "dynamic"
  ; timeout_ms = 500
  }

let sample_bundles : (string * Core.Crashbundle.t) list =
  let base : Core.Crashbundle.t =
    { kind = Pipeline
    ; stage = "cpuify"
    ; stage_index = 7
    ; rung = "no-mincut"
    ; exn_text = "Fault.Injected(\"cpuify:raise\")"
    ; backtrace = "Raised at Foo.bar\nCalled from Baz.qux\n"
    ; repro = "polygeist-cpu x.cu --cuda-lower"
    ; mincut = false
    ; faults = [ ("cpuify", Core.Fault.Raise); ("cse", Core.Fault.Corrupt) ]
    ; source = "__global__ void k() {}\n"
    ; ir_before = "module {\n}\n"
    }
  in
  [ ("pipeline", base)
  ; ( "runtime"
    , { base with
        kind = Runtime { run = sample_run; chunk = Some 8 }
      ; stage = "runtime"
      ; stage_index = 0
      ; rung = "runtime"
      ; exn_text = "watchdog timeout after 500 ms"
      ; backtrace = ""
      ; mincut = true
      ; faults = [ ("runtime", Core.Fault.Hang) ]
      } )
  ; ( "serve"
    , { base with
        kind =
          Serve
            { run = { sample_run with entry = None; sizes = [] }
            ; duration_ms = 1234
            ; retries = 2
            ; queue_depth = 5
            }
      ; stage = "serve"
      ; stage_index = 2
      ; rung = "serve"
      ; exn_text = "Fault.Injected(\"serve:raise\")"
      ; mincut = true
      ; faults = [ ("serve", Core.Fault.Raise) ]
      ; ir_before = ""
      } )
  ; ( "fuzz"
    , { base with
        kind = Fuzz { seed = 11; timeout_ms = 5000 }
      ; stage = "exec-inner-par-d4"
      ; stage_index = 0
      ; rung = "fuzz"
      ; exn_text = "checksum: 1 vs 2"
      ; backtrace = ""
      ; mincut = true
      ; faults = []
      } )
  ]

(* Every kind round-trips exactly, a multi-line exception text (as
   [Cannot_lower] writes one) included. *)
let test_bundle_roundtrip () =
  let cannot_lower =
    Core.Cpuify.error_to_string
      (Core.Cpuify.Cannot_lower
         { op_text = "scf.parallel {\n  polygeist.barrier\n}"
         ; loc = None
         ; remaining_barriers = 1
         })
  in
  Alcotest.(check bool) "Cannot_lower text spans lines" true
    (String.contains cannot_lower '\n');
  List.iter
    (fun (what, (b : Core.Crashbundle.t)) ->
      List.iter
        (fun (b : Core.Crashbundle.t) ->
          match Core.Crashbundle.of_string (Core.Crashbundle.to_string b) with
          | Error e -> Alcotest.failf "%s bundle did not parse back: %s" what e
          | Ok b' ->
            Alcotest.(check string) (what ^ " exception") b.exn_text b'.exn_text;
            Alcotest.(check bool) (what ^ " round-trips") true (b = b'))
        [ b; { b with exn_text = cannot_lower } ])
    sample_bundles

(* The v6 text of each sample, so format drift shows as a diff. *)
let golden =
  List.map
    (fun (what, lines) -> (what, String.concat "\n" lines))
    [ ( "pipeline"
      , [ "polygeist-cpu crash bundle v6"
        ; "kind: pipeline"
        ; "stage: cpuify"
        ; "stage-index: 7"
        ; "rung: no-mincut"
        ; "exception: Fault.Injected(\\\"cpuify:raise\\\")"
        ; "repro: polygeist-cpu x.cu --cuda-lower"
        ; "mincut: false"
        ; "faults: cpuify:raise,cse:corrupt"
        ; "backtrace:"
        ; "| Raised at Foo.bar"
        ; "| Called from Baz.qux"
        ; "=== source ==="
        ; "__global__ void k() {}"
        ; "=== pre-stage ir ==="
        ; "module {"
        ; "}"
        ; ""
        ] )
    ; ( "runtime"
      , [ "polygeist-cpu crash bundle v6"
        ; "kind: runtime"
        ; "stage: runtime"
        ; "stage-index: 0"
        ; "rung: runtime"
        ; "exception: watchdog timeout after 500 ms"
        ; "repro: polygeist-cpu x.cu --cuda-lower"
        ; "mincut: true"
        ; "faults: runtime:hang"
        ; "entry: run"
        ; "sizes: 128,7"
        ; "mode: inner-parallel"
        ; "exec: parallel"
        ; "domains: 4"
        ; "schedule: dynamic"
        ; "timeout-ms: 500"
        ; "chunk: 8"
        ; "backtrace:"
        ; "=== source ==="
        ; "__global__ void k() {}"
        ; "=== pre-stage ir ==="
        ; "module {"
        ; "}"
        ; ""
        ] )
    ; ( "serve"
      , [ "polygeist-cpu crash bundle v6"
        ; "kind: serve"
        ; "stage: serve"
        ; "stage-index: 2"
        ; "rung: serve"
        ; "exception: Fault.Injected(\\\"serve:raise\\\")"
        ; "repro: polygeist-cpu x.cu --cuda-lower"
        ; "mincut: true"
        ; "faults: serve:raise"
        ; "entry: -"
        ; "sizes: "
        ; "mode: inner-parallel"
        ; "exec: parallel"
        ; "domains: 4"
        ; "schedule: dynamic"
        ; "timeout-ms: 500"
        ; "duration-ms: 1234"
        ; "retries: 2"
        ; "queue-depth: 5"
        ; "backtrace:"
        ; "| Raised at Foo.bar"
        ; "| Called from Baz.qux"
        ; "=== source ==="
        ; "__global__ void k() {}"
        ; "=== pre-stage ir ==="
        ; ""
        ] )
    ; ( "fuzz"
      , [ "polygeist-cpu crash bundle v6"
        ; "kind: fuzz"
        ; "stage: exec-inner-par-d4"
        ; "stage-index: 0"
        ; "rung: fuzz"
        ; "exception: checksum: 1 vs 2"
        ; "repro: polygeist-cpu x.cu --cuda-lower"
        ; "mincut: true"
        ; "faults: "
        ; "seed: 11"
        ; "timeout-ms: 5000"
        ; "backtrace:"
        ; "=== source ==="
        ; "__global__ void k() {}"
        ; "=== pre-stage ir ==="
        ; "module {"
        ; "}"
        ; ""
        ] )
    ]

let test_bundle_golden () =
  List.iter
    (fun (what, b) ->
      Alcotest.(check string) what (List.assoc what golden)
        (Core.Crashbundle.to_string b))
    sample_bundles

(* [text] with its first line swapped for [head]. *)
let with_head head text =
  match String.index_opt text '\n' with
  | Some i -> head ^ String.sub text i (String.length text - i)
  | None -> head

(* The older formats never left this repo: a v1-v5 head is refused with
   a typed [Error], never an exception, and the same text under the v6
   head parses, so the head alone refuses it. *)
let test_bundle_old_heads_rejected () =
  List.iter
    (fun version ->
      List.iter
        (fun (what, text) ->
          let old = with_head ("polygeist-cpu crash bundle " ^ version) text in
          (match Core.Crashbundle.of_string old with
           | Error _ -> ()
           | Ok _ -> Alcotest.failf "%s %s bundle was accepted" version what
           | exception e ->
             Alcotest.failf "%s %s bundle raised %s" version what
               (Printexc.to_string e));
          match
            Core.Crashbundle.of_string
              (with_head "polygeist-cpu crash bundle v6" old)
          with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "%s body under the v6 head: %s" what e)
        golden)
    [ "v1"; "v2"; "v3"; "v4"; "v5" ]

(* Hostile bytes: any mutation of a v6 bundle parses or is an [Error]. *)
let test_bundle_mutation =
  let texts = Array.of_list (List.map snd golden) in
  QCheck.Test.make ~name:"mutated crash bundles parse or fail, never raise"
    ~count:2000
    QCheck.(
      pair
        (int_bound (Array.length texts - 1))
        (small_list (pair (int_bound 100_000) char)))
    (fun (i, edits) ->
      let b = Bytes.of_string texts.(i) in
      List.iter
        (fun (pos, c) -> Bytes.set b (pos mod Bytes.length b) c)
        edits;
      match Core.Crashbundle.of_string (Bytes.to_string b) with
      | Ok _ | Error _ -> true)

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
    match Core.Passmgr.run_pipeline ~mincut:b.mincut ~faults:b.faults m2 with
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

(* The stage names are the fault-plan vocabulary, and their positions
   the index space of a crash bundle's stage-index: pin both lists. *)
let test_stage_names_pinned () =
  Alcotest.(check (list string))
    "pipeline stages"
    [ "canonicalize"; "cse"; "mem2reg"; "canonicalize"; "cse"; "licm"
    ; "barrier-elim"; "cpuify"; "canonicalize"; "cse"; "mem2reg"; "licm"
    ; "canonicalize" ]
    (List.map fst (Core.Cpuify.pipeline_stages ()));
  Alcotest.(check (list string))
    "stage names"
    [ "canonicalize"; "cse"; "mem2reg"; "licm"; "barrier-elim"; "cpuify" ]
    (Core.Cpuify.stage_names ())

let tests =
  [ Alcotest.test_case "clean pipeline: no degradation" `Quick test_clean
  ; Alcotest.test_case "pipeline stage names pinned" `Quick
      test_stage_names_pinned
  ; Alcotest.test_case "cpuify raise -> no-mincut rung" `Quick
      test_raise_no_mincut
  ; Alcotest.test_case "cpuify raise x2 -> whole-pipeline fallback" `Quick
      test_double_raise_fallback
  ; Alcotest.test_case "optimization raise -> skip" `Quick test_opt_raise_skip
  ; Alcotest.test_case "corrupt caught by verifier -> skip" `Quick
      test_corrupt_caught_by_verifier
  ; Alcotest.test_case "fuel exhaust -> skip" `Quick test_exhaust_skip
  ; Alcotest.test_case "cpuify budget exhaustion is Did_not_converge" `Quick
      test_budget_is_error
  ; Alcotest.test_case "snapshot / restore / structural_equal" `Quick
      test_snapshot_restore
  ; Alcotest.test_case "snapshot shares values, never records or arrays"
      `Quick test_snapshot_aliasing
  ; Alcotest.test_case "two domains compile the suite concurrently" `Quick
      test_concurrent_compiles
  ; Alcotest.test_case "crash bundle round-trip" `Quick test_bundle_roundtrip
  ; Alcotest.test_case "crash bundle golden v6 text" `Quick test_bundle_golden
  ; Alcotest.test_case "v1-v5 crash bundles rejected for the head alone"
      `Quick test_bundle_old_heads_rejected
  ; QCheck_alcotest.to_alcotest test_bundle_mutation
  ; Alcotest.test_case "crash bundle replays deterministically" `Quick
      test_bundle_replay
  ; Alcotest.test_case "unrecoverable pipeline returns Error" `Quick
      test_unrecoverable_is_error
  ]
