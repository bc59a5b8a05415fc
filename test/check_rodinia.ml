(* Regression harness for the static kernel checker: every benchmark of
   the Rodinia registry must come out clean (wired into `dune runtest`
   via the check-rodinia alias).

   These kernels execute correctly under the differential interpreter
   tests, so any diagnostic here is a checker false positive — except
   for warnings a benchmark legitimately triggers, which are listed in
   [expected] with a reason. *)

let expected : (string * string * string) list =
  (* benchmark, check, reason *) []

let () =
  let failures = ref 0 in
  let benches = Rodinia.Registry.matmul :: Rodinia.Registry.all in
  List.iter
    (fun (b : Rodinia.Bench_def.t) ->
      let m = Cudafe.Codegen.compile b.cuda_src in
      Core.Cpuify.cleanup m;
      let diags = Analysis.Kernelcheck.check_module m in
      let unexpected =
        List.filter
          (fun (d : Analysis.Diag.t) ->
            not
              (List.exists
                 (fun (name, check, _) -> name = b.name && check = d.check)
                 expected))
          diags
      in
      if unexpected = [] then
        Printf.printf "%-16s clean (%d expected diagnostic(s))\n" b.name
          (List.length diags)
      else begin
        incr failures;
        Printf.printf "%-16s UNEXPECTED DIAGNOSTICS:\n" b.name;
        List.iter
          (fun d ->
            print_endline
              ("  " ^ Analysis.Diag.to_string ~file:(b.name ^ ".cu") d))
          unexpected
      end;
      (* And the full lowering pipeline, re-verifying the IR and
         re-running the race check after every pass: a definite race must
         never appear mid-lowering in a race-free kernel. *)
      let m2 = Cudafe.Codegen.compile b.cuda_src in
      List.iter
        (fun (pass, f) ->
          f m2;
          (match Ir.Verifier.verify_result m2 with
           | Ok () -> ()
           | Error e ->
             incr failures;
             Printf.printf "%-16s IR DOES NOT VERIFY after %s: %s\n" b.name
               pass e);
          let races =
            List.filter Analysis.Diag.is_error
              (Analysis.Kernelcheck.check_module_races m2)
          in
          if races <> [] then begin
            incr failures;
            Printf.printf "%-16s RACE INTRODUCED by pass %s:\n" b.name pass;
            List.iter
              (fun d ->
                print_endline
                  ("  " ^ Analysis.Diag.to_string ~file:(b.name ^ ".cu") d))
              races
          end)
        (Core.Cpuify.pipeline_stages ()))
    benches;
  if !failures > 0 then begin
    Printf.printf "%d benchmark(s) with unexpected diagnostics\n" !failures;
    exit 1
  end
  else print_endline "all Rodinia kernels pass the static checker"
