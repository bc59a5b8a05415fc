(* The fault-tolerant pass manager.

   Wraps every stage of [Cpuify.pipeline_stages] in a recovery harness:

     1. snapshot the module ([Ir.Clone.snapshot]: fresh records and
        arrays over the same immutable values) before the stage;
     2. run the stage under exception isolation and a fuel budget;
     3. verify the IR afterwards ([Ir.Verifier]);
     4. on any failure — exception, structured error, unverifiable IR —
        roll back to the snapshot and descend the degradation ladder:

          min-cut split  →  cache-everything split (~use_mincut:false)
                         →  skip the optimization
                         →  whole-pipeline fallback: restore the ORIGINAL
                            module and run the conservative no-opt
                            lowering (plain cache-everything splitting,
                            no optimizations), which always succeeds.

   Optimization stages (canonicalize, cse, mem2reg, licm, barrier-elim)
   recover by skipping; only cpuify — mandatory, since no barrier may
   survive — walks the split rungs and, failing those, triggers the
   whole-pipeline fallback.  Every failure is recorded in the report and
   (when --crash-dir is set) serialized as a replayable crash bundle.
   If even the conservative fallback fails the pipeline is unrecoverable
   and the last failure is returned as an error — the driver maps it to
   a nonzero exit instead of an uncaught exception.

   Deterministic fault injection ([Fault]) hooks in right here: each
   one-shot plan entry fires the first time its stage is attempted, so
   tests can force any rung of the ladder to engage. *)

open Ir

type rung =
  | Primary (* the stage as configured (for cpuify: min-cut split) *)
  | No_mincut (* cpuify retried with cache-everything splitting *)
  | Skip (* optimization stage rolled back and skipped *)
  | Fallback (* whole-pipeline conservative no-opt lowering *)

let rung_to_string = function
  | Primary -> "primary"
  | No_mincut -> "no-mincut"
  | Skip -> "skip"
  | Fallback -> "no-opt-fallback"

type stage_failure =
  { stage : string
  ; stage_index : int
  ; rung : rung (* ladder rung being attempted when it failed *)
  ; exn_text : string
  ; backtrace : string
  ; bundle : string option (* crash bundle path, when one was written *)
  }

type degradation =
  { failure : stage_failure (* the failure that forced the descent *)
  ; recovered_to : rung
  }

type report =
  { degradations : degradation list (* in pipeline order *)
  ; failures : stage_failure list (* every failure, all rungs, in order *)
  ; fell_back : bool
  ; bundles : string list
  }

let degraded (r : report) : bool = r.degradations <> []

let failure_to_string (f : stage_failure) : string =
  Printf.sprintf "stage %d '%s' (%s rung): %s" f.stage_index f.stage
    (rung_to_string f.rung) f.exn_text

let report_to_string (r : report) : string =
  let b = Buffer.create 256 in
  List.iter
    (fun d ->
      Buffer.add_string b
        (Printf.sprintf "  %s\n    -> recovered via %s\n"
           (failure_to_string d.failure)
           (rung_to_string d.recovered_to)))
    r.degradations;
  if r.fell_back then
    Buffer.add_string b
      "  whole-pipeline fallback engaged: conservative no-opt lowering\n";
  List.iter
    (fun p -> Buffer.add_string b (Printf.sprintf "  crash bundle: %s\n" p))
    r.bundles;
  Buffer.contents b

(* Make the module unverifiable — the `corrupt` fault: a barrier at
   module top level violates the placement invariant, so the post-stage
   verification catches it deterministically. *)
let corrupt_module (m : Op.op) : unit =
  let r = m.Op.regions.(0) in
  r.Op.body <- r.Op.body @ [ Op.mk Op.Barrier ]

(* Speculative-edit harness: the same snapshot/restore substrate the
   ladder uses, exposed for the repair search.  Runs [f]; when it
   returns [false] or raises, the module is transplanted back to its
   pre-call state (note restore replaces the regions with FRESH copies,
   so op/region references into the module taken before the call are
   dangling afterwards — callers must re-derive them). *)
let with_rollback (m : Op.op) (f : unit -> bool) : bool =
  let snap = Clone.snapshot m in
  match f () with
  | true -> true
  | false ->
    Clone.restore ~into:m snap;
    false
  | exception _ ->
    Clone.restore ~into:m snap;
    false

(* Per-stage fuel: generous — real stages tick once per fixpoint
   iteration, so only a diverging pass (or an injected exhaust) hits it. *)
let stage_fuel = 1_000_000

exception Abort of stage_failure

let run_pipeline ?(mincut = true) ?(faults = [])
    ?crash_dir ?(source = "") ?(repro = "") (m : Op.op) :
  (report, report * stage_failure) result =
  Printexc.record_backtrace true;
  let pending = Fault.pending_of_plan faults in
  let initial = Clone.snapshot m in
  let degradations = ref [] in
  let failures = ref [] in
  let bundles = ref [] in
  let fell_back = ref false in

  let write_bundle ~(snap : Op.op) ~stage ~stage_index ~rung ~exn_text
      ~backtrace : string option =
    match crash_dir with
    | None -> None
    | Some dir -> begin
      let b =
        { Crashbundle.kind = Pipeline
        ; stage
        ; stage_index
        ; rung = rung_to_string rung
        ; exn_text
        ; backtrace
        ; repro
        ; mincut
        ; faults
        ; source
        ; ir_before = Printer.op_to_string snap
        }
      in
      match Crashbundle.write ~dir b with
      | Ok path ->
        bundles := path :: !bundles;
        Some path
      | Error _ -> None
    end
  in

  (* One isolated attempt: snapshot, run, verify; on failure roll back
     and produce the failure record (plus a crash bundle). *)
  let attempt ~stage ~stage_index ~rung (f : Op.op -> (unit, string) result) :
    (unit, stage_failure) result =
    let snap = Clone.snapshot m in
    let outcome =
      match Fuel.with_budget stage_fuel (fun () -> f m) with
      | Ok () -> begin
        match Verifier.verify_result m with
        | Ok () -> Ok ()
        | Error e -> Error ("IR verification failed: " ^ e, "")
      end
      | Error e -> Error (e, "")
      | exception e -> Error (Printexc.to_string e, Printexc.get_backtrace ())
    in
    match outcome with
    | Ok () -> Ok ()
    | Error (exn_text, backtrace) ->
      Clone.restore ~into:m snap;
      let bundle =
        write_bundle ~snap ~stage ~stage_index ~rung ~exn_text ~backtrace
      in
      let f = { stage; stage_index; rung; exn_text; backtrace; bundle } in
      failures := f :: !failures;
      Error f
  in

  (* The stage body at a given rung, through the structured boundaries:
     cpuify reports via [Cpuify.run_result]; the other passes are
     unit-returning and rely on exception isolation. *)
  let base_stage ~rung name fn (m : Op.op) : (unit, string) result =
    if name = "cpuify" then
      let use_mincut = match rung with No_mincut -> false | _ -> mincut in
      Result.map_error Cpuify.error_to_string (Cpuify.run_result ~use_mincut m)
    else begin
      fn m;
      Ok ()
    end
  in

  (* Apply the next pending one-shot fault for this stage, if any. *)
  let faulted ~stage (body : Op.op -> (unit, string) result) (m : Op.op) :
    (unit, string) result =
    match Fault.take pending stage with
    | None -> body m
    | Some (Fault.Raise | Fault.Hang) ->
      (* [Hang] only means "spin forever" inside the parallel runtime;
         a pass stage has the fuel budget for divergence, so here it
         degrades to an immediate raise *)
      raise (Fault.Injected (Fault.entry_to_string (stage, Fault.Raise)))
    | Some Fault.Exhaust ->
      Fuel.with_budget 0 (fun () ->
          Fuel.tick stage;
          body m)
    | Some Fault.Corrupt ->
      let r = body m in
      (match r with Ok () -> corrupt_module m | Error _ -> ());
      r
  in

  let record failure recovered_to =
    degradations := { failure; recovered_to } :: !degradations
  in

  (* Restore the pristine input and run the conservative lowering that
     must always succeed: cache-everything splitting, no optimizations,
     no fuel limit.  Fault injection still applies (stage name
     "no-opt-fallback"), so tests can exercise the unrecoverable path. *)
  let whole_pipeline_fallback ~stage_index (cause : stage_failure) : unit =
    Clone.restore ~into:m initial;
    match
      attempt ~stage:"no-opt-fallback" ~stage_index ~rung:Fallback
        (faulted ~stage:"no-opt-fallback" (fun m ->
             Fuel.unlimited (fun () ->
                 Result.map_error Cpuify.error_to_string
                   (Cpuify.run_result ~use_mincut:false m))))
    with
    | Ok () ->
      fell_back := true;
      record cause Fallback
    | Error f -> raise (Abort f)
  in

  let run_stage idx (name, fn) =
    if not !fell_back then begin
      match
        attempt ~stage:name ~stage_index:idx ~rung:Primary
          (faulted ~stage:name (base_stage ~rung:Primary name fn))
      with
      | Ok () -> ()
      | Error fail1 ->
        if name = "cpuify" then begin
          match
            attempt ~stage:name ~stage_index:idx ~rung:No_mincut
              (faulted ~stage:name (base_stage ~rung:No_mincut name fn))
          with
          | Ok () -> record fail1 No_mincut
          | Error fail2 -> whole_pipeline_fallback ~stage_index:idx fail2
        end
        else
          (* the rollback already put the pre-stage IR back: skipping an
             optimization is always sound *)
          record fail1 Skip
    end
  in

  let stages = Cpuify.pipeline_stages () in
  let mk_report () =
    { degradations = List.rev !degradations
    ; failures = List.rev !failures
    ; fell_back = !fell_back
    ; bundles = List.rev !bundles
    }
  in
  match List.iteri run_stage stages with
  | () -> Ok (mk_report ())
  | exception Abort f -> Error (mk_report (), f)

(* --- the -cuda-lower recipe --- *)

type recipe =
  | No_opt
  | Optimized of Omp_lower.options

let recipes =
  [ ("inner-serial", Optimized Omp_lower.default_options)
  ; ("inner-parallel", Optimized Omp_lower.inner_par_options)
  ; ("no-opt", No_opt)
  ]

let lower ?mincut ?faults ?crash_dir ?source ?repro (recipe : recipe)
    (m : Op.op) : (report, report * string) result =
  let clean =
    { degradations = []; failures = []; fell_back = false; bundles = [] }
  in
  let lowered =
    match recipe with
    | No_opt -> begin
      match Cpuify.run_result ~use_mincut:false m with
      | Ok () -> Ok (clean, Omp_lower.default_options)
      | Error e -> Error (clean, "cpuify: " ^ Cpuify.error_to_string e)
    end
    | Optimized omp -> begin
      match run_pipeline ?mincut ?faults ?crash_dir ?source ?repro m with
      | Ok r ->
        (* after the whole-pipeline fallback the module is exactly the
           no-opt lowering: keep the OpenMP step conservative too *)
        Ok (r, if r.fell_back then Omp_lower.default_options else omp)
      | Error (r, f) ->
        Error (r, "pipeline failed beyond recovery: " ^ failure_to_string f)
    end
  in
  match lowered with
  | Error _ as e -> e
  | Ok (report, omp) -> begin
    ignore (Omp_lower.run ~options:omp m);
    Canonicalize.run m;
    match Verifier.verify_result m with
    | Ok () -> Ok report
    | Error e ->
      Error (report, "internal error: lowered IR does not verify: " ^ e)
  end
