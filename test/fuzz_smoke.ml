(* @fuzz-smoke (wired into `dune runtest`): a fixed-seed budget of
   generated kernels through the full differential oracle.  On a healthy
   compiler the campaign finds nothing; re-introducing a barrier-lowering
   bug (dropping a min-cut crossing value, skipping the while-condition
   thread-0 capture, ignoring write-after-read in barrier elimination)
   produces findings within this budget, each shrunk to a small
   replayable witness.  Deterministic: the seeds are fixed and no
   assertion involves wall clock — the cases/min line in the report is
   informational only. *)

let cases = 50
let seed = 1

let failures = ref 0

let fail fmt =
  incr failures;
  Printf.printf fmt

let () =
  (* generator contract: deterministic in the seed, and compilable *)
  if not (String.equal (Fuzz.Gen.source ~seed:7) (Fuzz.Gen.source ~seed:7))
  then fail "generator is not deterministic for a fixed seed\n";
  if Fuzz.Reduce.ir_ops (Fuzz.Gen.source ~seed) = max_int then
    fail "generated seed %d does not compile\n" seed;
  (* the campaign itself: every rung of the pipeline and both executors
     must agree with GPU semantics on every generated kernel *)
  let r = Fuzz.Fuzzer.run_campaign ~seed ~cases () in
  print_string (Fuzz.Fuzzer.report_to_string r);
  List.iter
    (fun (f : Fuzz.Fuzzer.finding) ->
      incr failures;
      Printf.printf "divergence at seed %d — reduced witness:\n%s\n" f.fseed
        f.freduced)
    r.findings;
  (* tensor-shaped generator (--gen-tensor): same contract, the kernel
     tier's dataflow shapes *)
  if
    not
      (String.equal
         (Fuzz.Gen.tensor_source ~seed:7)
         (Fuzz.Gen.tensor_source ~seed:7))
  then fail "tensor generator is not deterministic for a fixed seed\n";
  if Fuzz.Reduce.ir_ops (Fuzz.Gen.tensor_source ~seed) = max_int then
    fail "generated tensor seed %d does not compile\n" seed;
  let rt = Fuzz.Fuzzer.run_campaign ~tensor:true ~seed ~cases:25 () in
  print_string (Fuzz.Fuzzer.report_to_string rt);
  List.iter
    (fun (f : Fuzz.Fuzzer.finding) ->
      incr failures;
      Printf.printf
        "tensor divergence at seed %d — reduced witness:\n%s\n" f.fseed
        f.freduced)
    rt.findings;
  (* replay honesty: a bundle recording a failure that no longer
     reproduces must come back stale, never "reproduced" *)
  let stale_bundle : Core.Crashbundle.t =
    { kind = Fuzz { seed; timeout_ms = 5000 }
    ; stage = "barrier-elim"
    ; stage_index = 0
    ; rung = "fuzz"
    ; exn_text = "checksum: synthetic failure for the stale-replay check"
    ; backtrace = ""
    ; repro = "fuzz-smoke stale-replay check"
    ; mincut = true
    ; faults = []
    ; source = Fuzz.Gen.source ~seed
    ; ir_before = ""
    }
  in
  (match Fuzz.Fuzzer.replay stale_bundle with
   | Error msg
     when String.length msg >= 5 && String.equal (String.sub msg 0 5) "stale"
     -> ()
   | Ok s -> fail "stale fuzz bundle replayed as reproduced: %s\n" s
   | Error msg -> fail "stale replay reported an unexpected error: %s\n" msg);
  (* the oracle runs the default pipeline only: a bundle recording
     mincut: false or a fault plan is refused, never replayed under the
     defaults *)
  List.iter
    (fun (what, (b : Core.Crashbundle.t)) ->
      match Fuzz.Fuzzer.replay b with
      | Error msg when String.starts_with ~prefix:"fuzz bundles replay only" msg
        -> ()
      | Ok s -> fail "fuzz bundle with %s replayed: %s\n" what s
      | Error msg -> fail "fuzz bundle with %s was not refused: %s\n" what msg)
    [ ("mincut: false", { stale_bundle with mincut = false })
    ; ( "a fault plan"
      , { stale_bundle with faults = [ ("cpuify", Core.Fault.Raise) ] } )
    ];
  if !failures > 0 then begin
    Printf.printf "%d fuzz-smoke failure(s)\n" !failures;
    exit 1
  end
  else print_endline "fuzz-smoke: clean"
