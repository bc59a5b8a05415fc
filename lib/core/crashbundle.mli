(** Crash bundles: self-contained failure reports written by the pass
    manager on stage failure, replayable with
    [polygeist-cpu --replay <bundle>].

    A bundle records the failing stage and degradation-ladder rung, the
    exception and backtrace, the pipeline options and complete fault
    plan, a CLI repro line (for humans only), the original source and
    the pre-stage IR dump.  The pipeline is deterministic, so re-running
    the embedded source under the recorded options and fault plan
    reproduces the failure. *)

(** Runtime-side configuration, so runtime and fuzz-oracle failures
    replay under the exact execution setup that produced them: what
    was run and how (plain strings/ints: Core does not depend on
    Runtime). *)
type runtime_cfg =
  { rexec : string (** ["interp"] or ["parallel"] *)
  ; rdomains : int
  ; rschedule : string (** ["static"], ["dynamic"] or ["guided"] *)
  ; rchunk : int option
  ; rseed : int option (** fuzz generator seed, when applicable *)
  ; rtimeout_ms : int option
  ; rentry : string option (** the function that was run *)
  ; rsizes : int list (** its integer arguments ([--size]) *)
  ; rrecipe : string (** the [--cpuify] recipe name *)
  }

(** Serving-side job context: wall-clock of the failing attempt,
    retries already burned and the admission-queue depth at failure
    (plain ints: Core does not depend on Serve). *)
type serve_cfg =
  { sduration_ms : int (** wall-clock of the failing attempt *)
  ; sretries : int (** retries already performed when it failed *)
  ; squeue_depth : int (** admission-queue depth at failure *)
  }

type t =
  { stage : string
  ; stage_index : int (** occurrence index within the pipeline *)
  ; rung : string (** ladder rung being attempted when it failed *)
  ; exn_text : string
  ; backtrace : string
  ; repro : string (** CLI line that led here, for humans *)
  ; options : Cpuify.options
  ; faults : Fault.plan
  ; runtime : runtime_cfg option
    (** [None] for pure pass-pipeline failures *)
  ; serve : serve_cfg option
    (** [None] for one-shot (non-daemon) failures *)
  ; source : string (** original CUDA translation unit *)
  ; ir_before : string (** pre-stage IR dump *)
  }

(** Serialize in format v5, the only format {!of_string} reads.  Its
    options line is [options: mincut=<bool>,budget=<int>]. *)
val to_string : t -> string

(** Parse a v5 bundle; any other magic line (older formats included) is
    an [Error]. *)
val of_string : string -> (t, string) result

(** Serialize into [dir] (created if missing) as
    [crash-NNN-<stage>.bundle], NNN picked fresh; returns the path. *)
val write : dir:string -> t -> (string, string) result

val read : string -> (t, string) result

(**/**)

val options_to_string : Cpuify.options -> string
val options_of_string : string -> (Cpuify.options, string) result
val runtime_to_string : runtime_cfg -> string
val runtime_of_string : string -> (runtime_cfg, string) result
val serve_to_string : serve_cfg -> string
val serve_of_string : string -> (serve_cfg, string) result
