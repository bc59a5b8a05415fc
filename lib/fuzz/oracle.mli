(** Differential oracle for one mini-CUDA program.

    Runs the program through every stage of
    [Core.Cpuify.pipeline_stages] individually — verifying the IR and
    comparing an interpreter checksum against the pristine module after
    each, so a divergence is attributed to the first stage that
    introduced it — then through OpenMP lowering (interpreted at team
    sizes 1 and 4) and the compiled multicore engine at 1 and 4 domains,
    watchdog-armed via [timeout_ms]; last, the module after the GPU
    stages is lowered with the inner-parallel recipe and run on the
    engine at 4 domains.

    The program must follow the {!Gen} contract: host entry
    [void launch(float* out, float* in)]. *)

type failure =
  { f_stage : string
    (** pipeline stage name, or ["frontend"], ["omp-lower"],
        ["post-canonicalize"], ["exec-d1"], ["exec-d4"],
        ["exec-inner-par-d4"] *)
  ; f_class : string
    (** ["verifier"], ["checksum"], ["error-mismatch"], ["crash"],
        ["stuck"], ["timeout"], ["exec-unsupported"] or ["frontend"] *)
  ; f_detail : string
  }

type outcome =
  | Passed
  | Failed of failure

val failure_to_string : failure -> string

(** The {!Gen} execution contract's host entry name ([launch]) — what a
    module must define for {!run_module} to be applicable. *)
val entry : string

(** The stage name of the last rung, which lowers with the
    inner-parallel recipe ([exec-inner-par-d4]). *)
val inner_par_stage : string

(** Stage and class equal — the invariant the reducer preserves. *)
val same_failure : failure -> failure -> bool

(** [run src] is [Passed], or the first failing rung.  [timeout_ms]
    (default 5000) bounds each parallel execution; the interpreter runs
    are fuel-bounded, so no rung can hang. *)
val run :
  ?options:Core.Cpuify.options -> ?timeout_ms:int -> string -> outcome

(** [run] starting from a frontend-level module (which must follow the
    same [launch] contract) instead of source; the input module is
    deep-cloned, never mutated.  The validation entry the repair search
    uses on its edited kernels. *)
val run_module :
  ?options:Core.Cpuify.options -> ?timeout_ms:int -> Ir.Op.op -> outcome

(** The IR as it stood {e before} the named stage (the crash bundle's
    pre-stage section); for ["frontend"] or executor stages, the
    frontend output resp. fully-lowered IR (lowered with the
    inner-parallel recipe for ["exec-inner-par-d4"]). *)
val ir_before : ?options:Core.Cpuify.options -> string -> string -> string
