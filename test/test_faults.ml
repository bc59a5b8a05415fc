(* The fault matrix (wired into `dune runtest` via the @faults alias):

   1. In-process: for EVERY pipeline stage and EVERY fault kind, over the
      whole Rodinia registry, inject the fault, run the fault-tolerant
      pass manager and check that the degraded module still computes
      exactly what the conservative no-opt lowering computes.

   2. Through the CLI driver (path given as argv(1)): with a fault
      injected into each stage, `polygeist-cpu --run` must exit 1
      (degraded — never crash), print the same output checksum as
      `--cpuify no-opt`, and the crash bundle it writes must replay
      deterministically (`--replay` exits 0). *)

let failures = ref 0

let fail fmt =
  incr failures;
  Printf.printf fmt

let checksum_of (m : Ir.Op.op) (b : Rodinia.Bench_def.t) : float =
  let w = b.mk_workload b.test_size in
  ignore
    (Interp.Eval.run ~team_size:3 m b.entry
       (Rodinia.Bench_def.args_of_workload w));
  Interp.Mem.checksum w.buffers

let no_opt_checksum (b : Rodinia.Bench_def.t) : float =
  let m = Cudafe.Codegen.compile b.cuda_src in
  Core.Cpuify.run ~use_mincut:false m;
  ignore (Core.Omp_lower.run m);
  checksum_of m b

(* --- part 1: the in-process matrix --- *)

let matrix () =
  let stages = Core.Cpuify.stage_names () in
  let kinds = [ Core.Fault.Raise; Core.Fault.Corrupt; Core.Fault.Exhaust ] in
  let cells = ref 0 in
  List.iter
    (fun (b : Rodinia.Bench_def.t) ->
      let baseline = no_opt_checksum b in
      List.iter
        (fun stage ->
          List.iter
            (fun kind ->
              incr cells;
              let what =
                Printf.sprintf "%s under %s" b.name
                  (Core.Fault.entry_to_string (stage, kind))
              in
              let m = Cudafe.Codegen.compile b.cuda_src in
              match Core.Passmgr.run_pipeline ~faults:[ (stage, kind) ] m with
              | exception e ->
                fail "%-40s ESCAPED EXCEPTION: %s\n" what (Printexc.to_string e)
              | Error (_, f) ->
                fail "%-40s UNRECOVERABLE: %s\n" what
                  (Core.Passmgr.failure_to_string f)
              | Ok report ->
                if not (Core.Passmgr.degraded report) then
                  fail "%-40s fault did not fire\n" what
                else begin
                  ignore (Core.Omp_lower.run m);
                  match checksum_of m b with
                  | exception e ->
                    fail "%-40s degraded module does not run: %s\n" what
                      (Printexc.to_string e)
                  | got ->
                    if not (Float.equal baseline got) then
                      fail "%-40s output differs from no-opt: %.17g vs %.17g\n"
                        what got baseline
                end)
            kinds)
        stages)
    Rodinia.Registry.all;
  Printf.printf "fault matrix: %d cells (%d benchmarks x %d stages x %d kinds)\n"
    !cells
    (List.length Rodinia.Registry.all)
    (List.length stages) 3

(* --- part 2: through the CLI driver --- *)

let sh (cmd : string) : int =
  let code = Sys.command cmd in
  (* Sys.command goes through /bin/sh, which reports signals as 128+n *)
  code

let slurp path = In_channel.with_open_text path In_channel.input_all

(* The "output checksum @..." line printed by --run. *)
let checksum_line out =
  String.split_on_char '\n' out
  |> List.find_opt (fun l ->
      String.length l >= 15 && String.sub l 0 15 = "output checksum")

let cli_checks (driver : string) =
  let fixture = Fixture.path "reduce.cu" in
  let tmp = Filename.temp_file "faults" ".out" in
  let crash_dir = Filename.temp_file "faults" ".crash" in
  Sys.remove crash_dir;
  let run args =
    let cmd =
      Printf.sprintf "%s %s %s > %s 2>/dev/null" (Filename.quote driver) args
        (Filename.quote fixture) (Filename.quote tmp)
    in
    let code = sh cmd in
    (code, slurp tmp)
  in
  (* the reference: conservative lowering, exits 0 *)
  let base_code, base_out =
    run "--cuda-lower --cpuify no-opt --run run --size 128"
  in
  if base_code <> 0 then fail "CLI: no-opt run exited %d, want 0\n" base_code;
  let base_ck =
    match checksum_line base_out with
    | Some l -> l
    | None ->
      fail "CLI: no-opt run printed no checksum line\n";
      ""
  in
  (* a clean optimized run exits 0 and computes the same answer *)
  let full_code, full_out = run "--cuda-lower --run run --size 128" in
  if full_code <> 0 then fail "CLI: clean run exited %d, want 0\n" full_code;
  if checksum_line full_out <> Some base_ck then
    fail "CLI: clean run checksum differs from no-opt\n";
  (* the parallel runtime computes the same answer as the serial
     interpreter, at 1 and 4 domains and under every schedule policy *)
  List.iter
    (fun extra ->
      let code, out =
        run (Printf.sprintf "--cuda-lower --run run --size 128 %s" extra)
      in
      if code <> 0 then
        fail "CLI: parallel run (%s) exited %d, want 0\n" extra code;
      if checksum_line out <> Some base_ck then
        fail "CLI: parallel run (%s) checksum differs from serial\n" extra)
    [ "--exec parallel --domains 1"
    ; "--exec parallel --domains 4"
    ; "--exec parallel --domains 4 --schedule dynamic"
    ; "--exec parallel --domains 4 --schedule guided"
    ];
  (* a runtime fault degrades the parallel path to the serial
     interpreter: exit 1, same answer *)
  let code, out =
    run
      "--cuda-lower --run run --size 128 --exec parallel --domains 4 \
       --inject-fault runtime:raise"
  in
  if code <> 1 then
    fail "CLI: runtime fault exited %d, want 1 (degraded to serial)\n" code;
  if checksum_line out <> Some base_ck then
    fail "CLI: runtime-fault fallback changed the output checksum\n";
  (* the watchdog: a hang-injected parallel launch under --timeout-ms
     terminates instead of hanging the driver, degrades to the serial
     interpreter (exit 1) with the reference checksum, and the runtime
     crash bundle it writes replays deterministically *)
  let rt_dir = Filename.temp_file "faults" ".rtcrash" in
  Sys.remove rt_dir;
  let code, out =
    run
      (Printf.sprintf
         "--cuda-lower --run run --size 128 --exec parallel --domains 4 \
          --timeout-ms 500 --inject-fault runtime:hang --crash-dir %s"
         (Filename.quote rt_dir))
  in
  if code <> 1 then
    fail "CLI: hang under the watchdog exited %d, want 1 (degraded)\n" code;
  if checksum_line out <> Some base_ck then
    fail "CLI: watchdog fallback changed the output checksum\n";
  (match try Sys.readdir rt_dir with Sys_error _ -> [||] with
   | [||] -> fail "CLI: no runtime crash bundle was written\n"
   | rt_bundles ->
     Array.iter
       (fun bundle ->
         let cmd =
           Printf.sprintf "%s --replay %s > %s 2>/dev/null"
             (Filename.quote driver)
             (Filename.quote (Filename.concat rt_dir bundle))
             (Filename.quote tmp)
         in
         let code = sh cmd in
         if code <> 0 then
           fail "CLI: runtime --replay %s exited %d, want 0 (reproduced)\n"
             bundle code)
       rt_bundles);
  (try
     Array.iter
       (fun f -> Sys.remove (Filename.concat rt_dir f))
       (Sys.readdir rt_dir);
     Sys.rmdir rt_dir
   with Sys_error _ -> ());
  (* a runtime bundle replays the program that failed: one written under
     a non-default --cpuify recipe lowers through that recipe again, and
     one recorded with flag abbreviations cmdliner accepts runs the
     recorded entry and sizes *)
  List.iter
    (fun recipe ->
      let dir = Filename.temp_file "faults" ".rtcrash" in
      Sys.remove dir;
      let code, _ =
        run
          (Printf.sprintf
             "--cuda-lower %s --exec parallel --inject-fault runtime:raise \
              --crash-dir %s"
             recipe (Filename.quote dir))
      in
      if code <> 1 then
        fail "CLI: runtime fault under %s exited %d, want 1\n" recipe code;
      let bundles = try Sys.readdir dir with Sys_error _ -> [||] in
      if bundles = [||] then
        fail "CLI: no runtime crash bundle under %s\n" recipe;
      Array.iter
        (fun bundle ->
          let path = Filename.concat dir bundle in
          let code =
            sh
              (Printf.sprintf "%s --replay %s > %s 2>/dev/null"
                 (Filename.quote driver) (Filename.quote path)
                 (Filename.quote tmp))
          in
          if code <> 0 then
            fail "CLI: --replay of a runtime bundle under %s exited %d, \
                  want 0 (reproduced)\n"
              recipe code;
          Sys.remove path)
        bundles;
      try Sys.rmdir dir with Sys_error _ -> ())
    [ "--cpuify no-opt --run run --size 128 --domains 4"
    ; "--cpuify inner-parallel --run run --size 128 --domains 4"
    ; "--cpu inner-parallel --ru run --si 100 --domains 2"
    ];
  (* a value the job decode would refuse stops at the command line, in
     the one-shot driver and the client alike (cmdliner's exit 124) *)
  List.iter
    (fun args ->
      let code, _ = run args in
      if code <> 124 then fail "CLI: %s exited %d, want 124\n" args code)
    [ "--cuda-lower --run run --exec parallel --domains 0"
    ; "--cuda-lower --run run --exec parallel --domains 300"
    ; "client --socket /nonexistent.sock --run run --exec interpp"
    ; "client --socket /nonexistent.sock --run run --domains 300"
    ; "client --socket /nonexistent.sock --run run --schedule dynamc"
    ; "client --socket /nonexistent.sock --run run --cpuify inner-paralel"
    ];
  (* the fuzz subcommand: a tiny fixed-seed campaign on a healthy build
     finds nothing and exits 0 (the real budget lives in @fuzz-smoke) *)
  let code =
    sh
      (Printf.sprintf "%s fuzz --seed 1 --cases 3 > %s 2>/dev/null"
         (Filename.quote driver) (Filename.quote tmp))
  in
  if code <> 0 then fail "CLI: fuzz --cases 3 exited %d, want 0\n" code;
  (* every stage, faulted: exit 1 (degraded, never a crash), same answer *)
  List.iter
    (fun stage ->
      let code, out =
        run
          (Printf.sprintf
             "--cuda-lower --run run --size 128 --inject-fault %s:raise \
              --crash-dir %s"
             stage (Filename.quote crash_dir))
      in
      if code <> 1 then
        fail "CLI: fault in %s exited %d, want 1 (degraded)\n" stage code;
      if checksum_line out <> Some base_ck then
        fail "CLI: fault in %s changed the output checksum\n" stage)
    (Core.Cpuify.stage_names ());
  (* a written bundle replays deterministically *)
  let bundles = Sys.readdir crash_dir in
  if Array.length bundles = 0 then fail "CLI: no crash bundles were written\n"
  else
    Array.iter
      (fun bundle ->
        let cmd =
          Printf.sprintf "%s --replay %s > %s 2>/dev/null"
            (Filename.quote driver)
            (Filename.quote (Filename.concat crash_dir bundle))
            (Filename.quote tmp)
        in
        let code = sh cmd in
        if code <> 0 then
          fail "CLI: --replay %s exited %d, want 0 (reproduced)\n" bundle code)
      bundles;
  (* the daemon and the oracle run the default pipeline only: their
     replays refuse a bundle recording mincut: false (exit 2) *)
  List.iter
    (fun (kind : Core.Crashbundle.kind) ->
      let path = Filename.temp_file "faults" ".bundle" in
      Out_channel.with_open_text path (fun oc ->
          Out_channel.output_string oc
            (Core.Crashbundle.to_string
               { kind
               ; stage = "serve"
               ; stage_index = 0
               ; rung = "serve"
               ; exn_text = "Fault.Injected(\"serve:raise\")"
               ; backtrace = ""
               ; repro = "faults: mincut refusal"
               ; mincut = false
               ; faults = []
               ; source = slurp fixture
               ; ir_before = ""
               }));
      let code =
        sh
          (Printf.sprintf "%s --replay %s > %s 2>/dev/null"
             (Filename.quote driver) (Filename.quote path) (Filename.quote tmp))
      in
      if code <> 2 then
        fail "CLI: --replay of a mincut: false %s bundle exited %d, want 2\n"
          (match kind with Fuzz _ -> "fuzz" | _ -> "serve")
          code;
      Sys.remove path)
    [ Serve
        { run =
            { entry = Some "run"
            ; sizes = [ 128 ]
            ; mode = "inner-serial"
            ; exec = "interp"
            ; domains = 1
            ; schedule = "static"
            ; timeout_ms = 0
            }
        ; duration_ms = 1
        ; retries = 0
        ; queue_depth = 0
        }
    ; Fuzz { seed = 1; timeout_ms = 5000 }
    ];
  (* an unparseable file is a clean diagnostic (exit 2), not a backtrace *)
  let bad = Filename.temp_file "faults" ".cu" in
  Out_channel.with_open_text bad (fun oc ->
      Out_channel.output_string oc "this is not CUDA\n");
  let cmd =
    Printf.sprintf "%s --cuda-lower %s > %s 2>&1" (Filename.quote driver)
      (Filename.quote bad) (Filename.quote tmp)
  in
  let code = sh cmd in
  if code <> 2 then fail "CLI: parse error exited %d, want 2\n" code;
  Printf.printf "CLI checks: exit codes, checksum parity (serial, \
                 parallel and watchdog fallback) and replay over %d stages\n"
    (List.length (Core.Cpuify.stage_names ()));
  Sys.remove tmp;
  Sys.remove bad;
  Array.iter
    (fun f -> Sys.remove (Filename.concat crash_dir f))
    (Sys.readdir crash_dir);
  Sys.rmdir crash_dir

let () =
  matrix ();
  if Array.length Sys.argv > 1 then cli_checks Sys.argv.(1);
  if !failures > 0 then begin
    Printf.printf "%d fault-matrix failure(s)\n" !failures;
    exit 1
  end
  else print_endline "all faults degrade to the no-opt baseline"
