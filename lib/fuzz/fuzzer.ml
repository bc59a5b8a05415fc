(* The fuzzing campaign: generate seeded kernels, run each through the
   differential {!Oracle}, shrink every failure with {!Reduce}, and
   persist each (reduced) witness as a replayable crash bundle in the
   existing [Crashbundle] format — so [--replay] works on fuzz findings
   exactly as it does on pass-manager crashes.

   Everything is deterministic given [seed] and [cases]: the generator
   is seed-indexed, the oracle's executions are race-free, and the
   reducer is a deterministic greedy fixpoint.  Wall-clock only appears
   in the stats report, never in a pass/fail decision. *)

type finding =
  { fseed : int
  ; ffailure : Oracle.failure
  ; fsource : string (* the generated program *)
  ; freduced : string (* after shrinking; = fsource if irreducible *)
  ; fops : int (* IR ops of the reduced witness *)
  ; fbundle : string option (* bundle path, when a crash dir was given *)
  }

type report =
  { cases : int
  ; findings : finding list
  ; secs : float
  }

let bundle_of_finding ~timeout_ms (f : finding) : Core.Crashbundle.t =
  { kind = Fuzz { seed = f.fseed; timeout_ms }
  ; stage = f.ffailure.f_stage
  ; stage_index = 0
  ; rung = "fuzz"
  ; exn_text = f.ffailure.f_class ^ ": " ^ f.ffailure.f_detail
  ; backtrace = ""
  ; repro =
      Printf.sprintf "polygeist-cpu fuzz --seed %d --cases 1 (reduced to %d ops)"
        f.fseed f.fops
  ; mincut = true
  ; faults = []
  ; source = f.freduced
  ; ir_before = Oracle.ir_before f.freduced f.ffailure.f_stage
  }

let run_campaign ?(timeout_ms = 5000) ?crash_dir ?(reduce = true)
    ?(tensor = false) ?(progress = fun _ _ -> ()) ~seed ~cases () : report =
  let t0 = Unix.gettimeofday () in
  let findings = ref [] in
  for i = 0 to cases - 1 do
    let case_seed = seed + i in
    let src =
      if tensor then Gen.tensor_source ~seed:case_seed
      else Gen.source ~seed:case_seed
    in
    (match Oracle.run ~timeout_ms src with
     | Oracle.Passed -> ()
     | Oracle.Failed failure ->
       let reduced =
         if reduce then Reduce.run ~timeout_ms src failure else src
       in
       let finding =
         { fseed = case_seed
         ; ffailure = failure
         ; fsource = src
         ; freduced = reduced
         ; fops = Reduce.ir_ops reduced
         ; fbundle = None
         }
       in
       let finding =
         match crash_dir with
         | None -> finding
         | Some dir -> (
           let b = bundle_of_finding ~timeout_ms finding in
           match Core.Crashbundle.write ~dir b with
           | Ok path -> { finding with fbundle = Some path }
           | Error _ -> finding)
       in
       findings := finding :: !findings);
    progress (i + 1) (List.length !findings)
  done;
  { cases; findings = List.rev !findings; secs = Unix.gettimeofday () -. t0 }

let report_to_string (r : report) : string =
  let b = Buffer.create 256 in
  let per_min =
    if r.secs > 0.0 then float_of_int r.cases /. (r.secs /. 60.0) else 0.0
  in
  Buffer.add_string b
    (Printf.sprintf
       "fuzz: %d cases in %.1fs (%.0f cases/min), %d divergence%s found\n"
       r.cases r.secs per_min
       (List.length r.findings)
       (if List.length r.findings = 1 then "" else "s"));
  List.iter
    (fun f ->
      Buffer.add_string b
        (Printf.sprintf "  seed %d: %s — reduced to %d IR ops%s\n" f.fseed
           (Oracle.failure_to_string f.ffailure)
           f.fops
           (match f.fbundle with
            | Some p -> Printf.sprintf " (bundle: %s)" p
            | None -> "")))
    r.findings;
  Buffer.contents b

(* --- the racy-repair campaign ([fuzz --gen-racy]) --- *)

(* Closing the loop between the three correctness tools: generate a
   racy mutant ({!Gen.racy_source}), hand it to the analysis-guided
   repair search ({!Core.Repair}), and accept a repair only when the
   differential oracle agrees the fixed kernel matches the pristine
   reference on every rung.  Deterministic given the seed range. *)

type repair_finding =
  { pseed : int
  ; perrors : int (* sanitizer errors before repair *)
  ; pedits : int (* barrier edits applied (0 on failure) *)
  ; ptried : int (* candidates speculatively applied *)
  ; psecs : float (* search + validation wall-clock *)
  ; presult : (string list, string) result (* patch lines, or why not *)
  }

type repair_report =
  { rscanned : int (* seeds examined *)
  ; rracy : int (* sanitizer-dirty mutants among them *)
  ; rfindings : repair_finding list (* one per racy mutant, seed order *)
  ; rsecs : float
  }

let run_repair_campaign ?(timeout_ms = 5000) ?(progress = fun _ _ -> ())
    ~seed ~racy () : repair_report =
  let t0 = Unix.gettimeofday () in
  (* seeds scanned before giving up on finding [racy] mutants *)
  let max_seeds = racy * 20 in
  let findings = ref [] in
  let nracy = ref 0 in
  let scanned = ref 0 in
  while !scanned < max_seeds && !nracy < racy do
    let case_seed = seed + !scanned in
    incr scanned;
    (match Cudafe.Codegen.compile (Gen.racy_source ~seed:case_seed) with
     | exception _ -> () (* mutation broke the frontend contract: skip *)
     | m ->
       Core.Cpuify.cleanup m;
       let errs =
         List.filter Core.Repair.target_diag
           (Analysis.Kernelcheck.check_module ~report_possible:true m)
       in
       if errs <> [] then begin
         incr nracy;
         let c0 = Unix.gettimeofday () in
         let validate m =
           match Oracle.run_module ~timeout_ms m with
           | Oracle.Passed -> Ok ()
           | Oracle.Failed f -> Error (Oracle.failure_to_string f)
         in
         let out = Core.Repair.run ~validate m in
         let secs = Unix.gettimeofday () -. c0 in
         let pedits, presult =
           match out.Core.Repair.status with
           | Core.Repair.Clean -> (0, Ok [])
           | Core.Repair.Repaired edits ->
             ( List.length edits
             , Ok
                 (List.map
                    (Core.Repair.edit_to_string
                       ~file:(Printf.sprintf "<seed %d>" case_seed))
                    edits) )
           | Core.Repair.Failed why -> (0, Error why)
         in
         findings :=
           { pseed = case_seed
           ; perrors = List.length errs
           ; pedits
           ; ptried = out.Core.Repair.stats.Core.Repair.candidates_tried
           ; psecs = secs
           ; presult
           }
           :: !findings
       end);
    progress !scanned !nracy
  done;
  { rscanned = !scanned
  ; rracy = !nracy
  ; rfindings = List.rev !findings
  ; rsecs = Unix.gettimeofday () -. t0
  }

let repair_report_to_string (r : repair_report) : string =
  let b = Buffer.create 256 in
  let ok = List.filter (fun f -> Result.is_ok f.presult) r.rfindings in
  let repaired = List.length ok in
  let median =
    match List.sort compare (List.map (fun f -> f.psecs) r.rfindings) with
    | [] -> 0.0
    | l -> List.nth l (List.length l / 2)
  in
  Buffer.add_string b
    (Printf.sprintf
       "repair: %d racy mutant%s from %d seeds, %d repaired (%.0f ms median \
        search), %.1fs total\n"
       r.rracy
       (if r.rracy = 1 then "" else "s")
       r.rscanned repaired (median *. 1000.0) r.rsecs);
  List.iter
    (fun f ->
      match f.presult with
      | Ok lines ->
        Buffer.add_string b
          (Printf.sprintf
             "  seed %d: %d error%s fixed with %d edit%s (%d candidates \
              tried)\n"
             f.pseed f.perrors
             (if f.perrors = 1 then "" else "s")
             f.pedits
             (if f.pedits = 1 then "" else "s")
             f.ptried);
        List.iter
          (fun l -> Buffer.add_string b (Printf.sprintf "    %s\n" l))
          lines
      | Error why ->
        Buffer.add_string b
          (Printf.sprintf "  seed %d: NOT repaired (%d candidates tried): %s\n"
             f.pseed f.ptried why))
    r.rfindings;
  (* search economy over the repaired mutants: 1.00 per edit means the
     ranking put the right point first every time *)
  let tried = List.fold_left (fun a f -> a + f.ptried) 0 ok in
  let edits = List.fold_left (fun a f -> a + f.pedits) 0 ok in
  Buffer.add_string b
    (Printf.sprintf
       "\ncandidates tried: %d for %d accepted edit(s) (%.2f per edit)\n"
       tried edits
       (if edits = 0 then 0.0 else float_of_int tried /. float_of_int edits));
  Buffer.contents b

(* Replaying a fuzz bundle: re-run the oracle on the embedded (reduced)
   source and check the same stage and class still fail.  Used by the
   driver's [--replay] for bundles of kind fuzz.  The oracle runs the
   default pipeline with no fault plan, so a bundle recording anything
   else is refused rather than replayed under the defaults. *)
let replay (b : Core.Crashbundle.t) : (string, string) result =
  let want_class =
    match String.index_opt b.exn_text ':' with
    | Some i -> String.sub b.exn_text 0 i
    | None -> b.exn_text
  in
  match b.kind with
  | Fuzz _ when (not b.mincut) || b.faults <> [] ->
    Error "fuzz bundles replay only the default pipeline, with no fault plan"
  | Fuzz { timeout_ms; _ } -> begin
    match Oracle.run ~timeout_ms b.source with
    | Oracle.Failed f
      when String.equal f.f_stage b.stage && String.equal f.f_class want_class
      ->
      Ok (Oracle.failure_to_string f)
    | Oracle.Failed f ->
      Error
        (Printf.sprintf "different failure: recorded [%s] %s, got %s" b.stage
           want_class
           (Oracle.failure_to_string f))
    | Oracle.Passed -> Error "stale: embedded source now passes the oracle"
  end
  | _ -> Error "not a fuzz bundle"
