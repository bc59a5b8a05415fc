(** The fault-tolerant pass manager.

    Runs every stage of {!Cpuify.pipeline_stages} under a recovery
    harness: deep snapshot before the stage, exception isolation plus a
    fuel budget around it, IR verification after it, and on any failure
    a rollback to the snapshot followed by a descent of the degradation
    ladder — min-cut split, cache-everything split, skip the
    optimization, and finally a whole-pipeline fallback to the
    conservative no-opt lowering, so the pipeline always produces
    runnable barrier-free IR.  Failures are recorded in the {!report}
    and, when [crash_dir] is set, serialized as replayable
    {!Crashbundle} files. *)

type rung =
  | Primary (** the stage as configured (for cpuify: min-cut split) *)
  | No_mincut (** cpuify retried with cache-everything splitting *)
  | Skip (** optimization stage rolled back and skipped *)
  | Fallback (** whole-pipeline conservative no-opt lowering *)

val rung_to_string : rung -> string

type stage_failure =
  { stage : string
  ; stage_index : int
  ; rung : rung (** ladder rung being attempted when it failed *)
  ; exn_text : string
  ; backtrace : string
  ; bundle : string option (** crash bundle path, when one was written *)
  }

type degradation =
  { failure : stage_failure (** the failure that forced the descent *)
  ; recovered_to : rung
  }

type report =
  { degradations : degradation list (** in pipeline order *)
  ; failures : stage_failure list
        (** every failure encountered, at every rung, in order — what
            [--replay] matches a bundle against *)
  ; fell_back : bool (** the whole-pipeline no-opt fallback engaged *)
  ; bundles : string list (** crash bundle paths written *)
  }

(** Did anything have to recover? *)
val degraded : report -> bool

val failure_to_string : stage_failure -> string

(** Multi-line human-readable degradation report ("" when clean). *)
val report_to_string : report -> string

(** Speculative-edit harness over {!Ir.Clone.snapshot}/[restore]: run
    the thunk and keep its edits to the module only when it returns
    [true]; on [false] or an exception the module is restored to its
    pre-call state and the call returns [false].  Restore transplants
    fresh op/region copies, so op/region references taken before the
    call dangle after a rollback — re-derive them.  This is the
    rollback substrate of the {!Repair} candidate search. *)
val with_rollback : Ir.Op.op -> (unit -> bool) -> bool

(** Run the full pre-OpenMP pipeline on the module, fault-tolerantly.
    [faults] is a deterministic injection plan (each entry one-shot);
    [source], [repro] and [runtime] (the active execution
    configuration, if any) are recorded verbatim in crash bundles.
    [Ok report] means the module now holds runnable barrier-free IR
    (possibly degraded — check {!degraded} / [fell_back]); [Error]
    means even the conservative fallback failed, with the report of
    everything tried plus the final failure. *)
val run_pipeline :
  ?options:Cpuify.options ->
  ?faults:Fault.plan ->
  ?crash_dir:string ->
  ?source:string ->
  ?repro:string ->
  ?runtime:Crashbundle.runtime_cfg ->
  Ir.Op.op ->
  (report, report * stage_failure) result
