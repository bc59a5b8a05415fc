(* polygeist-cpu: the command-line driver, mirroring the paper's drop-in
   usage (Sec. III-C).  It accepts a mini-CUDA file and, like the real
   tool, [-cuda-lower] selects GPU-to-CPU translation while [-cpuify]
   picks the lowering/optimization recipe.  [-check] runs the static
   kernel sanitizer (races, barrier divergence, shared-memory init)
   instead of lowering.

     polygeist-cpu kernel.cu -cuda-lower -emit-ir
     polygeist-cpu kernel.cu -cuda-lower -cpuify=inner-serial -run main 1024
     polygeist-cpu kernel.cu -mcuda -time 32
     polygeist-cpu kernel.cu -check
     polygeist-cpu kernel.cu -check-after-each-pass

   The optimized pipeline runs under the fault-tolerant pass manager:
   a failing stage is rolled back and the degradation ladder engages
   (min-cut split -> cache-everything split -> skip -> conservative
   no-opt lowering), so translation degrades instead of crashing.

   Exit codes: 0 = success, 1 = success but degraded (a stage failed
   and a ladder rung engaged), 2 = failure (every pipeline error is
   reported as a message, never as a raw exception/backtrace), 124/125 =
   CLI parse error / internal error (Cmdliner conventions).

     polygeist-cpu kernel.cu -cuda-lower --crash-dir crashes -run main
     polygeist-cpu kernel.cu -cuda-lower --inject-fault cpuify:raise
     polygeist-cpu kernel.cu -cuda-lower --fault-seed 42
     polygeist-cpu --replay crashes/crash-000-cpuify.bundle *)

open Cmdliner

(* Map any escaping exception to a term_result error message: the user
   sees a diagnostic, not a backtrace, and the process exits 2. *)
let guard (what : string) (f : unit -> ('a, [ `Msg of string ]) result) :
  ('a, [ `Msg of string ]) result =
  match f () with
  | r -> r
  | exception Cudafe.Parser.Error e -> Error (`Msg ("parse error: " ^ e))
  | exception Cudafe.Codegen.Error e -> Error (`Msg ("codegen error: " ^ e))
  | exception Core.Cpuify.Stuck e -> Error (`Msg ("cpuify: " ^ e))
  | exception Interp.Mem.Runtime_error e ->
    Error (`Msg ("runtime error: " ^ e))
  | exception e ->
    Error (`Msg (Printf.sprintf "%s: %s" what (Printexc.to_string e)))

(* The name [v] has in a [--flag] enum table. *)
let name_of (names : (string * 'a) list) (v : 'a) : string =
  fst (List.find (fun (_, x) -> x = v) names)

let print_diags ~file diags =
  List.iter
    (fun d -> print_endline (Analysis.Diag.to_string ~file d))
    diags

(* -check: frontend, cleanup, sanitize.  Exit 0 when clean (or only
   warnings), EXIT_CHECK_FINDINGS (4) when the sanitizer reports errors
   — distinct from 2 so CI can tell "the kernel is buggy" from "the
   tool failed". *)
let exit_check_findings = 4

let check_source ~file ~format (m : Ir.Op.op) :
  (int, [ `Msg of string ]) result =
  Core.Cpuify.cleanup m;
  let diags = Analysis.Kernelcheck.check_module m in
  (match format with
   | `Text ->
     print_diags ~file diags;
     if diags = [] then Printf.printf "%s: no issues found\n" file
   | `Json -> print_endline (Analysis.Diag.list_to_json ~file diags));
  let errs = List.filter Analysis.Diag.is_error diags in
  if errs = [] then Ok 0
  else begin
    if format = `Text then
      Printf.eprintf "polygeist-cpu: kernel check failed: %d error(s) in %s\n"
        (List.length errs) file;
    Ok exit_check_findings
  end

(* -repair: frontend, cleanup, sanitize, then the analysis-guided
   barrier-repair search.  A repair is accepted only when the sanitizer
   comes back clean AND — for programs following the fuzzer's [launch]
   differential contract — the repaired module matches the GPU-semantics
   reference on the whole differential oracle (every pipeline stage,
   both executors at 1 and 4 domains).  Prints the patch as
   file:line:col edits followed by the repaired pre-lowering IR. *)
let repair_source ~file (m : Ir.Op.op) : (int, [ `Msg of string ]) result =
  Core.Cpuify.cleanup m;
  let validate m' =
    match Ir.Op.find_func m' Fuzz.Oracle.entry with
    | None -> Ok () (* no differential contract: sanitizer-only *)
    | Some _ -> (
      match Fuzz.Oracle.run_module m' with
      | Fuzz.Oracle.Passed -> Ok ()
      | Fuzz.Oracle.Failed f -> Error (Fuzz.Oracle.failure_to_string f))
  in
  let initial_definite =
    List.exists Analysis.Diag.is_error
      (List.filter Core.Repair.target_diag
         (Analysis.Kernelcheck.check_module ~report_possible:true m))
  in
  let out = Core.Repair.run ~validate m in
  let tried = out.Core.Repair.stats.Core.Repair.candidates_tried in
  match out.Core.Repair.status with
  | Core.Repair.Clean ->
    Printf.printf "%s: no issues found, nothing to repair\n" file;
    Ok 0
  | Core.Repair.Repaired edits ->
    Printf.printf "%s: repaired with %d barrier edit(s) (%d candidate(s) \
                   tried):\n" file (List.length edits) tried;
    List.iter
      (fun e -> print_endline ("  " ^ Core.Repair.edit_to_string ~file e))
      edits;
    print_newline ();
    print_string (Ir.Printer.op_to_string m);
    Ok 0
  | Core.Repair.Failed why when not initial_definite ->
    (* Only warning-level possible races (opaque indices the analysis
       cannot prove disjoint) — kernel findings, not a tool failure. *)
    Printf.printf
      "%s: no definite errors; possible races remain unproven and no \
       barrier edit discharges them (%s)\n"
      file why;
    Ok exit_check_findings
  | Core.Repair.Failed why ->
    Error (`Msg (Printf.sprintf "repair failed for %s: %s" file why))

(* -check-after-each-pass: run the full cpuify pipeline one pass at a
   time, re-verifying the IR and re-running the race check after every
   pass — a definite race must never APPEAR mid-pipeline in a race-free
   program, so any new one is a miscompilation. *)
let check_after_each_pass ~file (m : Ir.Op.op) :
  (unit, [ `Msg of string ]) result =
  let stage name =
    match Ir.Verifier.verify_result m with
    | Error e ->
      Error (`Msg (Printf.sprintf "IR does not verify after %s: %s" name e))
    | Ok () ->
      let races =
        List.filter Analysis.Diag.is_error
          (Analysis.Kernelcheck.check_module_races m)
      in
      if races = [] then Ok ()
      else begin
        print_diags ~file races;
        Error
          (`Msg
            (if name = "frontend" then
               Printf.sprintf
                 "input kernel already has %d data race(s); fix them before \
                  lowering"
                 (List.length races)
             else
               Printf.sprintf "race introduced by pass %s (%d diagnostic(s))"
                 name (List.length races)))
      end
  in
  let rec go = function
    | [] ->
      Printf.printf "%s: pipeline clean (verifier + race check after every \
                     pass)\n" file;
      Ok ()
    | (name, f) :: rest -> begin
      f m;
      match stage name with Ok () -> go rest | Error _ as e -> e
    end
  in
  match stage "frontend" with
  | Error _ as e -> e
  | Ok () -> go (Core.Cpuify.pipeline_stages ())

(* Build the module: the MCUDA baseline, the shared -cuda-lower recipe
   ({!Core.Passmgr.lower}, under the fault-tolerant pass manager), or
   the frontend's IR as is.  The flag is [true] when the degradation
   ladder had to descend. *)
let build ~(mcuda : bool) ~(cuda_lower : bool) ~(recipe : Core.Passmgr.recipe)
    ~(faults : Core.Fault.plan) ~(crash_dir : string option)
    ~(repro : string) (src : string) :
  (Ir.Op.op * bool, [ `Msg of string ]) result =
  let m = Cudafe.Codegen.compile src in
  if cuda_lower && not mcuda then begin
    match Core.Passmgr.lower ~faults ?crash_dir ~source:src ~repro recipe m with
    | Ok report ->
      let degraded = Core.Passmgr.degraded report in
      if degraded then
        prerr_string
          ("polygeist-cpu: pipeline degraded:\n"
           ^ Core.Passmgr.report_to_string report);
      Ok (m, degraded)
    | Error (report, msg) ->
      prerr_string (Core.Passmgr.report_to_string report);
      Error (`Msg msg)
  end
  else begin
    if mcuda then Mcuda.lower m;
    match Ir.Verifier.verify_result m with
    | Ok () -> Ok (m, false)
    | Error e ->
      Error (`Msg ("internal error: lowered IR does not verify: " ^ e))
  end

(* The run step ({!Serve.Supervisor.run_entry}, shared with the compile
   daemon) under the CLI's failure policy.  A failed parallel run — a
   fault, an error or a watchdog timeout — is one more degradation rung:
   write a replayable runtime crash bundle into [crash_dir] (when
   given), tear the cached pool down (leaking any wedged worker) so the
   serial re-run does not share the process with a poisoned team, and
   re-run on the serial interpreter with fresh arguments.  Returns
   [Ok true] when it so degraded (exit code 1). *)
let run_entry ~(exec : [ `Interp | `Parallel ]) ~(domains : int)
    ~(schedule : Runtime.Schedule.policy) ~(chunk : int option)
    ~(stats : bool) ~(timeout_ms : int) ~(crash_dir : string option)
    ~(faults : Core.Fault.plan)
    ~(recipe : Core.Passmgr.recipe) ~(src : string) ~(repro : string)
    (m : Ir.Op.op) (entry : string) (sizes : int list) :
  (bool, [ `Msg of string ]) result =
  match Ir.Op.find_func m entry with
  | None -> Error (`Msg (Printf.sprintf "no function @%s in the module" entry))
  | Some f -> begin
    let run exec =
      Serve.Supervisor.run_entry ~log:print_endline ~exec ~domains ~schedule
        ?chunk ~timeout_ms ~plan:faults m f sizes
    in
    match run exec with
    | _, Some s when stats ->
      Printf.printf
        "runtime stats @%s: launches=%d barrier_phases=%d domain_spawns=%d \
         chunks_grabbed=%d frames_allocated=%d\n"
        entry s.Runtime.Exec.launches s.Runtime.Exec.barrier_phases
        s.Runtime.Exec.domain_spawns s.Runtime.Exec.chunks_grabbed
        s.Runtime.Exec.frames_allocated;
      Ok false
    | _ -> Ok false
    | exception e when exec = `Parallel ->
      let why = Serve.Supervisor.describe e in
      Printf.eprintf
        "polygeist-cpu: parallel runtime failed (%s); degrading to the \
         serial interpreter\n"
        why;
      (match crash_dir with
       | None -> ()
       | Some dir -> begin
         let bundle =
           { Core.Crashbundle.kind =
               Runtime
                 { run =
                     { entry = Some entry
                     ; sizes
                     ; mode = name_of Core.Passmgr.recipes recipe
                     ; exec = "parallel"
                     ; domains
                     ; schedule = Runtime.Schedule.to_string schedule
                     ; timeout_ms
                     }
                 ; chunk
                 }
           ; stage = "runtime"
           ; stage_index = 0
           ; rung = "runtime"
           ; exn_text = why
           ; backtrace = ""
           ; repro
           ; mincut = true
           ; faults
           ; source = src
           ; ir_before = Ir.Printer.op_to_string m
           }
         in
         match Core.Crashbundle.write ~dir bundle with
         | Ok path ->
           Printf.eprintf "polygeist-cpu: wrote runtime crash bundle %s\n"
             path
         | Error msg ->
           Printf.eprintf "polygeist-cpu: could not write crash bundle: %s\n"
             msg
       end);
      ignore (Runtime.Pool.shutdown_cached ());
      ignore (run `Interp);
      Ok true
  end

let time_entry (m : Ir.Op.op) ~(machine : string) ~(threads : int)
    (run_name : string option) (sizes : int list) :
  (unit, [ `Msg of string ]) result =
  let mach = Runtime.Machine.by_name machine in
  let entry =
    match run_name with
    | Some e -> Some e
    | None -> begin
      match Ir.Op.funcs m with
      | f :: _ -> Some (Ir.Op.func_name f)
      | [] -> None
    end
  in
  match entry with
  | None -> Error (`Msg "empty module: nothing to time")
  | Some entry -> begin
    match Ir.Op.find_func m entry with
    | None -> Error (`Msg (Printf.sprintf "no function @%s" entry))
    | Some f ->
      let sizes = ref sizes in
      let args =
        Array.to_list f.Ir.Op.regions.(0).rargs
        |> List.map (fun (p : Ir.Value.t) ->
            match p.Ir.Value.typ with
            | Ir.Types.Scalar d when Ir.Types.is_int_dtype d -> begin
              match !sizes with
              | n :: rest ->
                sizes := rest;
                Runtime.Cost.Ki n
              | [] -> Runtime.Cost.Ki 1024
            end
            | _ -> Runtime.Cost.Unk)
      in
      let r = Runtime.Cost.of_func mach ~threads m entry args in
      Printf.printf "simulated time @%s on %s with %d threads: %.4e s\n" entry
        mach.Runtime.Machine.name threads r.Runtime.Cost.seconds;
      Ok ()
  end

(* Replaying a fuzz bundle: re-run the differential oracle on the
   embedded reduced source and require the same stage and failure
   class. *)
let replay_fuzz (b : Core.Crashbundle.t) : (int, [ `Msg of string ]) result =
  guard "replay" (fun () ->
      match Fuzz.Fuzzer.replay b with
      | Ok s ->
        Printf.printf "replay: reproduced the recorded fuzz failure\n  %s\n" s;
        Ok 0
      | Error msg ->
        Printf.printf
          "replay: %s\n\
           replay: the recorded failure did NOT reproduce (stale bundle?)\n"
          msg;
        Ok 3)

(* The job a runtime or serve bundle recorded, field for field. *)
let recorded_job (b : Core.Crashbundle.t) (r : Core.Crashbundle.run) :
  Serve.Proto.job =
  { Serve.Proto.source = b.source
  ; entry = r.entry
  ; sizes = r.sizes
  ; mode = r.mode
  ; exec = r.exec
  ; domains = r.domains
  ; schedule = r.schedule
  ; faults = Core.Fault.plan_to_string b.faults
  }

(* The verdict of a runtime or serve replay: exit 0 when the recorded
   failure text recurs, 3 when the bundle is stale. *)
let verdict ~(what : string) ~(now_ok : string) ~(expected : string)
    (seen : string option) : (int, [ `Msg of string ]) result =
  let stale () =
    print_string
      "replay: the recorded failure did NOT reproduce (stale bundle?)\n";
    Ok 3
  in
  match seen with
  | Some why when String.equal why expected ->
    Printf.printf "replay: reproduced the recorded %s failure\n  %s\n" what
      why;
    Ok 0
  | Some why ->
    Printf.printf "replay: saw instead: %s\n" why;
    stale ()
  | None ->
    Printf.printf "replay: %s\n" now_ok;
    stale ()

(* Replaying a runtime bundle: lower the embedded source through the
   recorded recipe, min-cut setting and fault plan, then re-run the
   recorded entry and parallel execution configuration through the
   shared run step. *)
let replay_runtime (b : Core.Crashbundle.t) (r : Core.Crashbundle.run)
    (chunk : int option) : (int, [ `Msg of string ]) result =
  guard "replay" (fun () ->
      match Serve.Proto.decode (recorded_job b r) with
      | Error e -> Error (`Msg ("replay: invalid job: " ^ e))
      | Ok spec -> (
        let m = Cudafe.Codegen.compile b.source in
        match
          Core.Passmgr.lower ~mincut:b.mincut ~faults:b.faults
            ~source:b.source ~repro:b.repro spec.recipe m
        with
        | Error (_, msg) -> Error (`Msg ("replay: " ^ msg))
        | Ok _ -> begin
          let entry = Option.get r.entry in
          match Ir.Op.find_func m entry with
          | None ->
            Error (`Msg (Printf.sprintf "replay: no function @%s to run" entry))
          | Some f ->
            verdict ~what:"runtime" ~now_ok:"parallel execution now succeeds"
              ~expected:b.exn_text
              (match
                 Serve.Supervisor.run_entry ~log:ignore ~exec:`Parallel
                   ~domains:spec.team ~schedule:spec.policy ?chunk
                   ~timeout_ms:r.timeout_ms ~plan:b.faults m f r.sizes
               with
               | _ -> None
               | exception e -> Some (Serve.Supervisor.describe e))
        end))

(* Replaying a serve bundle: rebuild the job the daemon was running and
   run ONE unsupervised attempt through the same fault wall. *)
let replay_serve (b : Core.Crashbundle.t) (r : Core.Crashbundle.run) :
  (int, [ `Msg of string ]) result =
  guard "replay" (fun () ->
      verdict ~what:"serve" ~now_ok:"the job now succeeds" ~expected:b.exn_text
        (match
           Serve.Supervisor.replay_attempt ~deadline_ms:r.timeout_ms
             (recorded_job b r)
         with
         | Ok _ -> None
         | Error why -> Some why))

(* Replaying a pipeline bundle: recompile the embedded source and re-run
   the pipeline under the recorded min-cut setting and fault plan. *)
let replay_pipeline (b : Core.Crashbundle.t) : (int, [ `Msg of string ]) result
    =
  guard "replay" (fun () ->
      let m = Cudafe.Codegen.compile b.source in
      let failures =
        match
          Core.Passmgr.run_pipeline ~mincut:b.mincut ~faults:b.faults
            ~source:b.source ~repro:b.repro m
        with
        | Ok report -> report.Core.Passmgr.failures
        | Error (report, f) -> report.Core.Passmgr.failures @ [ f ]
      in
      let matches (f : Core.Passmgr.stage_failure) =
        f.stage = b.stage
        && Core.Passmgr.rung_to_string f.rung = b.rung
        && f.exn_text = b.exn_text
      in
      match List.find_opt matches failures with
      | Some f ->
        Printf.printf "replay: reproduced the recorded failure\n  %s\n"
          (Core.Passmgr.failure_to_string f);
        Ok 0
      | None ->
        List.iter
          (fun f ->
            Printf.printf "replay: saw instead: %s\n"
              (Core.Passmgr.failure_to_string f))
          failures;
        Printf.printf
          "replay: the recorded failure did NOT reproduce (stale bundle?)\n";
        Ok 3)

(* --replay: re-run what the bundle's kind recorded; everything it runs
   is deterministic, so the recorded failure must recur.  Exit 0 when it
   does, 3 when the bundle is stale.  The oracle and the daemon run the
   default pipeline only, so their bundles must record it. *)
let do_replay (path : string) : (int, [ `Msg of string ]) result =
  match Core.Crashbundle.read path with
  | Error e -> Error (`Msg e)
  | Ok ({ kind = Serve _ | Fuzz _; mincut = false; _ }) ->
    Error
      (`Msg
        "replay: serve and fuzz bundles replay only the default pipeline \
         (mincut: true)")
  | Ok ({ kind = Pipeline; _ } as b) -> replay_pipeline b
  | Ok ({ kind = Runtime { run; chunk }; _ } as b) -> replay_runtime b run chunk
  | Ok ({ kind = Serve { run; _ }; _ } as b) -> replay_serve b run
  | Ok ({ kind = Fuzz _; _ } as b) -> replay_fuzz b

let main file cuda_lower mcuda recipe emit_ir run_name sizes exec domains
    schedule chunk stats timeout_ms time_threads machine check check_format
    check_each repair inject_faults fault_seed crash_dir replay :
  (int, [ `Msg of string ]) result =
  match replay with
  | Some bundle -> do_replay bundle
  | None ->
  match file with
  | None -> Error (`Msg "missing FILE.cu argument (or --replay <bundle>)")
  | Some file ->
    guard "internal error" (fun () ->
        let src = In_channel.with_open_text file In_channel.input_all in
        if repair then repair_source ~file (Cudafe.Codegen.compile src)
        else if check || check_each then begin
          (* the flags compose: with both, the full pre-lowering check gates
             the per-pass sweep (which only re-runs the race check —
             divergence and shared-init lose meaning mid-lowering) *)
          let first =
            if check then
              check_source ~file ~format:check_format
                (Cudafe.Codegen.compile src)
            else Ok 0
          in
          match first with
          | Error _ as e -> e
          | Ok code when code <> 0 -> Ok code
          | Ok _ ->
            if check_each then
              Result.map (fun () -> 0)
                (check_after_each_pass ~file (Cudafe.Codegen.compile src))
            else Ok 0
        end
        else begin
          let faults =
            match fault_seed with
            | Some seed ->
              let plan =
                Core.Fault.random_plan ~seed (Core.Cpuify.stage_names ())
              in
              Printf.eprintf "polygeist-cpu: seeded fault plan (%d): %s\n" seed
                (Core.Fault.plan_to_string plan);
              inject_faults @ plan
            | None -> inject_faults
          in
          let repro =
            "polygeist-cpu "
            ^ String.concat " " (List.tl (Array.to_list Sys.argv))
          in
          match
            build ~mcuda ~cuda_lower ~recipe ~faults ~crash_dir ~repro src
          with
          | Error _ as e -> e
          | Ok (m, degraded) ->
            if emit_ir then print_string (Ir.Printer.op_to_string m);
            let ran =
              match run_name with
              | Some entry ->
                run_entry ~exec ~domains ~schedule ~chunk ~stats ~timeout_ms
                  ~crash_dir ~faults ~recipe ~src ~repro m entry sizes
              | None -> Ok false
            in
            (match ran with
             | Error _ as e -> e
             | Ok runtime_degraded -> begin
               let timed =
                 match time_threads with
                 | Some threads ->
                   time_entry m ~machine ~threads run_name sizes
                 | None -> Ok ()
               in
               match timed with
               | Error _ as e -> e
               | Ok () -> Ok (if degraded || runtime_degraded then 1 else 0)
             end)
        end)

(* The flags that say what to run, shared by the one-shot driver and
   [client], so both accept (and reject, exit 124) the same values;
   [exec] takes its default because the two differ on it. *)
let run_name =
  Arg.(value & opt (some string) None & info [ "run" ]
         ~doc:"interpret the given host function")

let sizes =
  Arg.(value & opt_all int [] & info [ "size" ]
         ~doc:"integer argument(s) for -run/-time (repeatable)")

let cpuify =
  let recipes = Core.Passmgr.recipes in
  Arg.(value
       & opt (enum recipes) (List.assoc "inner-serial" recipes)
       & info [ "cpuify" ]
           ~doc:(Printf.sprintf "lowering recipe, one of %s"
                   (Arg.doc_alts_enum recipes)))

let exec ~default =
  let engines = Serve.Proto.engines in
  Arg.(value & opt (enum engines) default & info [ "exec" ]
         ~doc:(Printf.sprintf
                 "execution engine for -run, one of %s: the serial \
                  GPU-semantics interpreter, or the multicore runtime \
                  executing omp.parallel regions on OCaml domains"
                 (Arg.doc_alts_enum engines)))

let domains =
  let parse s =
    Result.bind (Arg.conv_parser Arg.int s) (fun n ->
        Result.map_error (fun e -> `Msg e) (Serve.Proto.check_domains n))
  in
  Arg.(value & opt (conv (parse, Format.pp_print_int)) 4 & info [ "domains" ]
         ~doc:(Printf.sprintf
                 "team size for --exec parallel, 1 to %d; 1 is the \
                  deterministic single-domain mode"
                 Serve.Proto.max_domains))

let schedule =
  let policies = Runtime.Schedule.policies in
  Arg.(value & opt (enum policies) Runtime.Schedule.Static
       & info [ "schedule" ]
           ~doc:(Printf.sprintf "worksharing schedule for --exec \
                                 parallel, one of %s"
                   (Arg.doc_alts_enum policies)))

let cmd =
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.cu"
           ~doc:"mini-CUDA source file")
  in
  let cuda_lower =
    Arg.(value & flag & info [ "cuda-lower" ]
           ~doc:"translate GPU constructs to CPU (the paper's -cuda-lower)")
  in
  let mcuda =
    Arg.(value & flag & info [ "mcuda" ]
           ~doc:"use the MCUDA-style baseline lowering instead")
  in
  let emit_ir =
    Arg.(value & flag & info [ "emit-ir" ] ~doc:"print the (lowered) IR")
  in
  let chunk =
    Arg.(value & opt (some int) None & info [ "chunk" ]
           ~doc:"chunk size of each dynamic/guided atomic grab for \
                 --exec parallel (default: dynamic batches at least 8 \
                 iterations, guided decays to 1)")
  in
  let stats =
    Arg.(value & flag & info [ "stats" ]
           ~doc:"print extended runtime counters after --exec parallel: \
                 launches, barrier phases, domain spawns, worksharing \
                 chunks grabbed, and register-file frames allocated \
                 (0 on repeated launches)")
  in
  let timeout_ms =
    Arg.(value & opt int 60000 & info [ "timeout-ms" ]
           ~doc:"watchdog bound on the wall-clock of each --exec parallel \
                 launch, in milliseconds; on expiry the launch is \
                 cancelled (barriers poisoned, workers unparked) and \
                 execution degrades to the serial interpreter with exit \
                 code 1.  0 disables the watchdog")
  in
  let time_threads =
    Arg.(value & opt (some int) None & info [ "time" ]
           ~doc:"report simulated time with this many threads")
  in
  let machine =
    Arg.(value & opt string "commodity" & info [ "machine" ]
           ~doc:"machine model: commodity | a64fx")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"run the static kernel sanitizer (data races, barrier \
                 divergence, uninitialized __shared__ reads) on the \
                 pre-lowering IR and exit; nonzero exit iff errors")
  in
  let check_format =
    let formats = [ ("text", `Text); ("json", `Json) ] in
    Arg.(value & opt (enum formats) `Text & info [ "check-format" ]
           ~doc:(Printf.sprintf
                   "output format for --check findings, one of %s: \
                    human-readable text, or a JSON array with one object \
                    per finding (kind, severity, file/line/col, message, \
                    barrier intervals, notes) for CI"
                   (Arg.doc_alts_enum formats)))
  in
  let check_each =
    Arg.(value & flag & info [ "check-after-each-pass" ]
           ~doc:"run the -cpuify pipeline one pass at a time, re-running \
                 the IR verifier and the race check after every pass")
  in
  let repair =
    Arg.(value & flag & info [ "repair" ]
           ~doc:"run the analysis-guided barrier repair search on the \
                 sanitizer's findings: insert barriers at interval \
                 separation points of racing pairs and hoist/delete \
                 divergent barriers, greedily with rollback, until the \
                 sanitizer is clean; a candidate repair of a program \
                 with a launch(out, in) entry must also match the \
                 GPU-semantics reference on the full differential \
                 oracle.  Prints the patch (file:line:col edits) and the \
                 repaired pre-lowering IR")
  in
  let fault_conv =
    let parse s =
      match Core.Fault.entry_of_string s with
      | Ok e -> Ok e
      | Error msg -> Error (`Msg msg)
    in
    let print ppf e = Format.pp_print_string ppf (Core.Fault.entry_to_string e) in
    Arg.conv (parse, print)
  in
  let inject_faults =
    Arg.(value & opt_all fault_conv [] & info [ "inject-fault" ]
           ~docv:"STAGE:KIND"
           ~doc:"inject a deterministic one-shot fault into the named \
                 pipeline stage; KIND is raise, corrupt, exhaust or hang \
                 (repeatable; each entry fires once, so two entries for \
                 the same stage take down successive ladder rungs).  The \
                 stage \"runtime\" targets the parallel execution engine \
                 instead of a pass: runtime:hang parks a team thread \
                 until the --timeout-ms watchdog cancels the launch")
  in
  let fault_seed =
    Arg.(value & opt (some int) None & info [ "fault-seed" ]
           ~doc:"append a seeded random fault plan (1-3 faults over the \
                 pipeline stages) to the injected faults")
  in
  let crash_dir =
    Arg.(value & opt (some string) None & info [ "crash-dir" ]
           ~docv:"DIR"
           ~doc:"write a replayable crash bundle into DIR for every \
                 stage failure the pass manager recovers from (or dies \
                 on)")
  in
  let replay =
    Arg.(value & opt (some file) None & info [ "replay" ]
           ~docv:"BUNDLE"
           ~doc:"re-run the pipeline recorded in a crash bundle and \
                 report whether the failure reproduces (exit 0 when it \
                 does, 3 when stale)")
  in
  Cmd.v
    (Cmd.info "polygeist-cpu" ~doc:"CUDA to CPU transpiler (paper reproduction)"
       ~exits:
         (Cmd.Exit.info 0 ~doc:"success" :: Cmd.Exit.info 1
            ~doc:"success, but degraded: a pipeline stage failed and a \
                  degradation-ladder rung engaged, or the parallel \
                  runtime failed (fault, error or watchdog timeout) and \
                  execution fell back to the serial interpreter"
          :: Cmd.Exit.info 2 ~doc:"failure (pipeline, runtime or check error)"
          :: Cmd.Exit.info 4
               ~doc:"--check found kernel errors (races, divergence, \
                     uninitialized shared reads)"
          :: Cmd.Exit.defaults))
    Term.(
      term_result
        (const main $ file $ cuda_lower $ mcuda $ cpuify $ emit_ir $ run_name
         $ sizes $ exec ~default:`Interp $ domains $ schedule $ chunk $ stats
         $ timeout_ms $ time_threads $ machine $ check $ check_format
         $ check_each $ repair $ inject_faults $ fault_seed $ crash_dir
         $ replay))

(* [polygeist-cpu fuzz ...]: the differential fuzzing campaign.  It is
   dispatched on the first argument rather than via [Cmd.group] so the
   primary positional-FILE interface keeps working unchanged. *)
let fuzz_cmd =
  let seed =
      Arg.(value & opt int 1 & info [ "seed" ]
             ~doc:"first generator seed; case $(i,i) uses seed + i, so a \
                   campaign is fully determined by --seed and --cases")
    in
    let cases =
      Arg.(value & opt int 200 & info [ "cases" ]
             ~doc:"number of generated kernels to run through the \
                   differential oracle")
    in
    let fuzz_crash_dir =
      Arg.(value & opt (some string) None & info [ "crash-dir" ]
             ~docv:"DIR"
             ~doc:"write each reduced finding as a replayable crash \
                   bundle into DIR (replay with --replay)")
    in
    let fuzz_timeout_ms =
      Arg.(value & opt int 5000 & info [ "timeout-ms" ]
             ~doc:"watchdog bound for the oracle's parallel-execution \
                   rungs, in milliseconds")
    in
    let no_reduce =
      Arg.(value & flag & info [ "no-reduce" ]
             ~doc:"report raw failing kernels without shrinking them")
    in
    let gen_racy =
      Arg.(value & flag & info [ "gen-racy" ]
             ~doc:"racy-repair mode: generate seeded RACY mutants (each a \
                   race-free kernel with one __syncthreads deleted), \
                   keep the ones the static sanitizer flags until \
                   --cases of them are collected, and run the \
                   analysis-guided repair search on each, validating \
                   every repair against the differential oracle.  Exit 1 \
                   if any racy mutant cannot be repaired")
    in
    let gen_tensor =
      Arg.(value & flag & info [ "gen-tensor" ]
             ~doc:"draw tensor-shaped kernels (cooperative-load shared \
                   GEMMs, tiled GEMMs with a ragged k edge, ring \
                   stencils, tree reductions, global-memory dot rows — \
                   the MocCUDA kernel tier's dataflow shapes) instead of \
                   the default phase mix")
    in
    let fuzz_main seed cases crash_dir timeout_ms no_reduce gen_racy
        gen_tensor : (int, [ `Msg of string ]) result =
      guard "fuzz" (fun () ->
          if gen_racy && gen_tensor then
            Error (`Msg "--gen-racy and --gen-tensor are mutually exclusive")
          else if gen_racy then begin
            let progress scanned racy =
              if scanned mod 20 = 0 then
                Printf.eprintf "fuzz --gen-racy: %d seeds scanned, %d racy \
                                mutant(s)\n%!" scanned racy
            in
            let r =
              Fuzz.Fuzzer.run_repair_campaign ~timeout_ms ~progress ~seed
                ~racy:cases ()
            in
            print_string (Fuzz.Fuzzer.repair_report_to_string r);
            let unrepaired =
              List.exists
                (fun (f : Fuzz.Fuzzer.repair_finding) ->
                  Result.is_error f.Fuzz.Fuzzer.presult)
                r.Fuzz.Fuzzer.rfindings
            in
            Ok (if unrepaired then 1 else 0)
          end
          else begin
            let progress done_ found =
              if done_ mod 50 = 0 then
                Printf.eprintf "fuzz: %d/%d cases, %d finding(s)\n%!" done_
                  cases found
            in
            let r =
              Fuzz.Fuzzer.run_campaign ?crash_dir ~timeout_ms
                ~reduce:(not no_reduce) ~tensor:gen_tensor ~progress ~seed
                ~cases ()
            in
            print_string (Fuzz.Fuzzer.report_to_string r);
            Ok (if r.Fuzz.Fuzzer.findings = [] then 0 else 1)
          end)
    in
    Cmd.v
      (Cmd.info "fuzz"
         ~doc:"differential kernel fuzzing: generate seeded race-free \
               mini-CUDA kernels, compare every pipeline stage and both \
               executors against the GPU-semantics interpreter, and \
               shrink each divergence to a small replayable witness"
         ~exits:
           (Cmd.Exit.info 0 ~doc:"no divergence found"
            :: Cmd.Exit.info 1 ~doc:"at least one divergence found"
            :: Cmd.Exit.defaults))
      Term.(
        term_result
          (const fuzz_main $ seed $ cases $ fuzz_crash_dir $ fuzz_timeout_ms
           $ no_reduce $ gen_racy $ gen_tensor))

(* [polygeist-cpu serve ...]: the supervised compile daemon.  Jobs are
   accepted over a Unix-domain socket, run inside the job fault wall
   (deadline, retry/backoff, circuit breaker, crash bundles) and cached
   by content address — see DESIGN.md section 12. *)
let serve_cmd =
  let socket =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket path to listen on (required unless \
                 --chaos)")
  in
  let queue_cap =
    Arg.(value & opt int 32 & info [ "queue-cap" ]
           ~doc:"admission bound: submissions beyond this many queued \
                 jobs are rejected with an explicit overloaded response")
  in
  let deadline_ms =
    Arg.(value & opt int 10000 & info [ "deadline-ms" ]
           ~doc:"per-job wall-clock budget enforced by the watchdog; 0 \
                 disables it (and with it the cancellation of hung jobs)")
  in
  let max_retries =
    Arg.(value & opt int 2 & info [ "max-retries" ]
           ~doc:"retries for transient job failures (timeouts, injected \
                 faults); deterministic failures are never retried")
  in
  let serve_crash_dir =
    Arg.(value & opt (some string) None & info [ "crash-dir" ] ~docv:"DIR"
           ~doc:"write a replayable rung=serve crash bundle for every \
                 failed job attempt")
  in
  let cache_dir =
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"persist the artifact cache (write-ahead journal, fsync \
                 per store) and the in-flight job journal in DIR; after \
                 a hard crash, restart replays the journals and reports \
                 exactly which tickets were lost")
  in
  let executors =
    Arg.(value & opt int 1 & info [ "executors" ] ~docv:"N"
           ~doc:"executor lanes; each owns its own supervisor, circuit \
                 breaker and domain pool, and jobs are routed to lanes \
                 by source-hash affinity")
  in
  let executor_deadline_ms =
    Arg.(value & opt int 0 & info [ "executor-deadline-ms" ]
           ~doc:"wall-clock bound before the fleet monitor declares an \
                 executor wedged, fails its job and replaces the lane; \
                 0 derives it from --deadline-ms and the retry schedule")
  in
  let chaos =
    Arg.(value & flag & info [ "chaos" ]
           ~doc:"instead of listening, run the seeded chaos campaign \
                 against the in-process daemon core (faults, wedges, \
                 executor crashes, admission bursts) and check the \
                 delivery invariants; exit 0 iff all held")
  in
  let chaos_seed =
    Arg.(value & opt int 42 & info [ "chaos-seed" ]
           ~doc:"seed of the chaos campaign's event schedule (a seed is \
                 a complete reproducer)")
  in
  let chaos_events =
    Arg.(value & opt int 60 & info [ "chaos-events" ]
           ~doc:"length of the chaos schedule (bursts count as one)")
  in
  let serve_main socket queue_cap deadline_ms max_retries crash_dir cache_dir
      executors executor_deadline_ms chaos chaos_seed chaos_events :
    (int, [ `Msg of string ]) result =
    guard "serve" (fun () ->
        if chaos then begin
          let r =
            Serve.Chaos.run
              { Serve.Chaos.seed = chaos_seed
              ; events = chaos_events
              ; executors = (if executors > 1 then executors else 4)
              ; queue_cap
              ; state_dir = cache_dir
              ; crash_dir
              }
          in
          print_string (Serve.Chaos.report_to_string r);
          Ok (if r.Serve.Chaos.violations = [] then 0 else 1)
        end
        else
          match socket with
          | None -> Error (`Msg "--socket is required (unless --chaos)")
          | Some socket ->
            let cfg =
              { Serve.Server.queue_cap
              ; cache_dir
              ; executors
              ; executor_deadline_ms
              ; sup =
                  { Serve.Supervisor.default_config with
                    deadline_ms
                  ; crash_dir
                  ; backoff =
                      { Serve.Backoff.default with max_retries }
                  }
              }
            in
            let t = Serve.Server.create cfg in
            (match Serve.Server.recovered t with
             | Some r when r.Serve.Journal.lost <> [] ->
               Printf.eprintf
                 "polygeist-cpu serve: previous run died with %d job(s) in \
                  flight:\n"
                 (List.length r.Serve.Journal.lost);
               List.iter
                 (fun (id, digest) ->
                   Printf.eprintf
                     "polygeist-cpu serve:   lost ticket %d (job %s) — \
                      resubmit it\n"
                     id digest)
                 r.Serve.Journal.lost
             | _ -> ());
            Printf.eprintf
              "polygeist-cpu serve: listening on %s (queue cap %d, deadline \
               %d ms, %d executor(s))\n%!"
              socket queue_cap deadline_ms (Serve.Server.executors t);
            let admitted = Serve.Server.serve_unix ~socket t in
            let s = Serve.Server.agg_stats t in
            let cs = Serve.Cache.stats (Serve.Server.cache t) in
            Printf.eprintf
              "polygeist-cpu serve: drained after %d admitted job(s): %d \
               completed, %d failed, %d retries, %d crash bundle(s), %d pool \
               rebuild(s), %d executor kill(s); cache %d hit(s) / %d \
               miss(es), %d quarantined; %d overloaded rejection(s)\n"
              admitted s.Serve.Supervisor.completed s.Serve.Supervisor.failed
              s.Serve.Supervisor.retries s.Serve.Supervisor.bundles
              s.Serve.Supervisor.pool_rebuilds
              (Serve.Server.executor_kills t)
              cs.Serve.Cache.hits cs.Serve.Cache.misses
              cs.Serve.Cache.quarantined
              (Serve.Server.overloaded_count t);
            Ok 0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"run the supervised compile daemon on a Unix-domain socket: \
             bounded-queue admission, a fleet of supervised executor \
             lanes, per-job deadlines and retry with backoff, per-source \
             circuit breakers, a crash-durable content-addressed artifact \
             cache, and a crash bundle for every job death (the daemon \
             itself never dies)"
       ~exits:(Cmd.Exit.info 0 ~doc:"drained gracefully" :: Cmd.Exit.defaults))
    Term.(
      term_result
        (const serve_main $ socket $ queue_cap $ deadline_ms $ max_retries
         $ serve_crash_dir $ cache_dir $ executors $ executor_deadline_ms
         $ chaos $ chaos_seed $ chaos_events))

(* [polygeist-cpu client ...]: submit one job (or a shutdown request)
   to a running daemon and adopt the job's exit code, so a client call
   is a drop-in for the equivalent one-shot invocation. *)
let exit_overloaded = 75 (* EX_TEMPFAIL: try again later *)

let client_cmd =
  let socket =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket of a running polygeist-cpu serve")
  in
  let file =
    Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.cu"
           ~doc:"mini-CUDA source file to submit")
  in
  let shutdown =
    Arg.(value & flag & info [ "shutdown" ]
           ~doc:"ask the daemon to drain and exit instead of submitting a \
                 job")
  in
  let faults =
    Arg.(value & opt string "" & info [ "inject-fault" ] ~docv:"PLAN"
           ~doc:"fault plan forwarded to the daemon's fault wall (e.g. \
                 serve:raise or cpuify:raise,serve:hang); faulted jobs \
                 are never cached")
  in
  let client_main socket file shutdown run_name sizes recipe exec domains
      schedule faults : (int, [ `Msg of string ]) result =
    guard "client" (fun () ->
        let req =
          if shutdown then Ok Serve.Proto.Shutdown
          else
            match file with
            | None ->
              Error (`Msg "missing FILE.cu argument (or --shutdown)")
            | Some file ->
              let source =
                In_channel.with_open_text file In_channel.input_all
              in
              Ok
                (Serve.Proto.Submit
                   { Serve.Proto.source
                   ; entry = run_name
                   ; sizes
                   ; mode = name_of Core.Passmgr.recipes recipe
                   ; exec = name_of Serve.Proto.engines exec
                   ; domains
                   ; schedule = Runtime.Schedule.to_string schedule
                   ; faults
                   })
        in
        match req with
        | Error _ as e -> e
        | Ok req -> begin
          (* the pid is as good a correlation id as any for a one-shot
             client; the daemon echoes it and Client.request verifies *)
          match Serve.Client.request ~id:(Unix.getpid ()) ~socket req with
          | Error e -> Error (`Msg e)
          | Ok (Serve.Proto.Rejected why) ->
            Error (`Msg ("rejected by the daemon: " ^ why))
          | Ok (Serve.Proto.Overloaded { depth; cap }) ->
            Printf.eprintf
              "polygeist-cpu client: daemon overloaded (queue %d/%d), try \
               again later\n"
              depth cap;
            Ok exit_overloaded
          | Ok (Serve.Proto.Done o) ->
            print_string o.Serve.Proto.log;
            if o.Serve.Proto.cached then
              Printf.eprintf "polygeist-cpu client: served from cache\n";
            if o.Serve.Proto.retries > 0 then
              Printf.eprintf "polygeist-cpu client: succeeded after %d \
                              retr%s\n"
                o.Serve.Proto.retries
                (if o.Serve.Proto.retries = 1 then "y" else "ies");
            if o.Serve.Proto.breaker then
              Printf.eprintf
                "polygeist-cpu client: served conservatively (circuit \
                 breaker tripped for this source)\n";
            Ok o.Serve.Proto.exit_code
        end)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:"submit one compile(/run) job to a running polygeist-cpu \
             serve daemon and exit with the job's one-shot exit code"
       ~exits:
         (Cmd.Exit.info 0 ~doc:"job succeeded"
          :: Cmd.Exit.info 1 ~doc:"job succeeded degraded"
          :: Cmd.Exit.info 2 ~doc:"job failed"
          :: Cmd.Exit.info exit_overloaded
               ~doc:"the daemon's admission queue is full; retry later"
          :: Cmd.Exit.defaults))
    Term.(
      term_result
        (const client_main $ socket $ file $ shutdown $ run_name $ sizes
         $ cpuify $ exec ~default:`Parallel $ domains $ schedule $ faults))

let () =
  (* distinct exit codes: 0 ok, 1 degraded (via main's return value),
     2 pipeline/check failure (term_result errors), 124/125 cmdliner's
     usual CLI/internal errors *)
  let eval =
    let argv = Sys.argv in
    let sub name c =
      Cmd.eval_value
        ~argv:
          (Array.append
             [| argv.(0) ^ " " ^ name |]
             (Array.sub argv 2 (Array.length argv - 2)))
        c
    in
    if Array.length argv > 1 && argv.(1) = "fuzz" then sub "fuzz" fuzz_cmd
    else if Array.length argv > 1 && argv.(1) = "serve" then
      sub "serve" serve_cmd
    else if Array.length argv > 1 && argv.(1) = "client" then
      sub "client" client_cmd
    else Cmd.eval_value cmd
  in
  match eval with
  | Ok (`Ok code) -> exit code
  | Ok (`Version | `Help) -> exit 0
  | Error `Term -> exit 2
  | Error `Parse -> exit 124
  | Error `Exn -> exit 125
