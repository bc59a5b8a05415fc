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

let bundle_of_finding ?(options = Core.Cpuify.default_options) ~timeout_ms
    (f : finding) : Core.Crashbundle.t =
  { stage = f.ffailure.f_stage
  ; stage_index = 0
  ; rung = "fuzz"
  ; exn_text = f.ffailure.f_class ^ ": " ^ f.ffailure.f_detail
  ; backtrace = ""
  ; repro =
      Printf.sprintf "polygeist-cpu fuzz --seed %d --cases 1 (reduced to %d ops)"
        f.fseed f.fops
  ; options
  ; faults = []
  ; runtime =
      Some
        { rexec = "parallel"
        ; rdomains = 4
        ; rschedule = "static"
        ; rchunk = None
        ; rseed = Some f.fseed
        ; rtimeout_ms = Some timeout_ms
        ; rentry = Some Oracle.entry
        ; rsizes = []
        ; rrecipe =
            (if String.equal f.ffailure.f_stage Oracle.inner_par_stage then
               "inner-parallel"
             else "inner-serial")
        }
  ; serve = None
  ; source = f.freduced
  ; ir_before = Oracle.ir_before ~options f.freduced f.ffailure.f_stage
  }

let run_campaign ?(options = Core.Cpuify.default_options) ?(timeout_ms = 5000)
    ?crash_dir ?(reduce = true) ?(tensor = false)
    ?(progress = fun _ _ -> ()) ~seed ~cases () : report =
  let t0 = Unix.gettimeofday () in
  let findings = ref [] in
  for i = 0 to cases - 1 do
    let case_seed = seed + i in
    let src =
      if tensor then Gen.tensor_source ~seed:case_seed
      else Gen.source ~seed:case_seed
    in
    (match Oracle.run ~options ~timeout_ms src with
     | Oracle.Passed -> ()
     | Oracle.Failed failure ->
       let reduced =
         if reduce then Reduce.run ~options ~timeout_ms src failure else src
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
           let b = bundle_of_finding ~options ~timeout_ms finding in
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

(* The sanitizer's precision contract (see [Kernelcheck]): clean the IR
   before checking — same sequence as the driver's -check path. *)
let cleanup (m : Ir.Op.op) : unit =
  Core.Canonicalize.run m;
  Core.Cse.run m;
  ignore (Core.Mem2reg.run m);
  Core.Canonicalize.run m

let run_repair_campaign ?(options = Core.Cpuify.default_options)
    ?(timeout_ms = 5000) ?max_seeds ?(progress = fun _ _ -> ()) ~seed ~racy ()
  : repair_report =
  let t0 = Unix.gettimeofday () in
  let max_seeds = match max_seeds with Some n -> n | None -> racy * 20 in
  let findings = ref [] in
  let nracy = ref 0 in
  let scanned = ref 0 in
  while !scanned < max_seeds && !nracy < racy do
    let case_seed = seed + !scanned in
    incr scanned;
    (match Cudafe.Codegen.compile (Gen.racy_source ~seed:case_seed) with
     | exception _ -> () (* mutation broke the frontend contract: skip *)
     | m ->
       cleanup m;
       let errs =
         List.filter Core.Repair.target_diag
           (Analysis.Kernelcheck.check_module ~report_possible:true m)
       in
       if errs <> [] then begin
         incr nracy;
         let c0 = Unix.gettimeofday () in
         let validate m =
           match Oracle.run_module ~options ~timeout_ms m with
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
  let repaired =
    List.length (List.filter (fun f -> Result.is_ok f.presult) r.rfindings)
  in
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
  Buffer.contents b

(* Replaying a fuzz bundle: re-run the oracle on the embedded (reduced)
   source and check the same stage and class still fail.  Used by the
   driver's [--replay] when it meets a bundle whose rung is "fuzz". *)
let replay (b : Core.Crashbundle.t) : (string, string) result =
  let timeout_ms =
    match b.runtime with
    | Some { rtimeout_ms = Some ms; _ } -> ms
    | _ -> 5000
  in
  let want_class =
    match String.index_opt b.exn_text ':' with
    | Some i -> String.sub b.exn_text 0 i
    | None -> b.exn_text
  in
  match Oracle.run ~options:b.options ~timeout_ms b.source with
  | Oracle.Failed f
    when String.equal f.f_stage b.stage && String.equal f.f_class want_class ->
    Ok (Oracle.failure_to_string f)
  | Oracle.Failed f ->
    Error
      (Printf.sprintf "different failure: recorded [%s] %s, got %s" b.stage
         want_class
         (Oracle.failure_to_string f))
  | Oracle.Passed -> Error "stale: embedded source now passes the oracle"
