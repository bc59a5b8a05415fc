(** Crash bundles: self-contained failure reports, replayable with
    [polygeist-cpu --replay <bundle>].

    Format v6 is a head line, a flat header of [key: value] lines, then
    the [backtrace:], [=== source ===] and [=== pre-stage ir ===]
    sections.  Header values are [String.escaped], so any text (a
    multi-line exception included) round-trips byte for byte.  The
    header's [kind] names the replay the bundle feeds and carries the
    fields that replay reads; the repro line is for humans only. *)

(** How a job ran, under the wire job's names ([Serve.Proto.job]; Core
    does not depend on Serve): [entry] is [None] for a compile-only job,
    [mode] a [--cpuify] recipe name, [timeout_ms] the watchdog deadline
    (0: none). *)
type run =
  { entry : string option; sizes : int list; mode : string; exec : string
  ; domains : int; schedule : string; timeout_ms : int }

(** Which replay a bundle feeds, with what that replay reads. *)
type kind =
  | Pipeline (** a pass-pipeline stage failed *)
  | Runtime of { run : run; chunk : int option }
      (** a parallel run failed; [run.entry] is never [None] *)
  | Serve of { run : run; duration_ms : int; retries : int; queue_depth : int }
      (** an attempt of a compile-daemon job died: its wall-clock, the
          retries already performed and the admission-queue depth *)
  | Fuzz of { seed : int; timeout_ms : int }
      (** the differential oracle diverged on the case of [seed] *)

(** The failing [stage] (its occurrence index within the pipeline), the
    ladder [rung] being attempted, the failure, a CLI [repro] line for
    humans, the lowering's [mincut] setting and fault plan, the original
    [source] and the pre-stage IR. *)
type t =
  { kind : kind; stage : string; stage_index : int; rung : string
  ; exn_text : string; backtrace : string; repro : string; mincut : bool
  ; faults : Fault.plan; source : string; ir_before : string }

(** Serialize in format v6, the only format {!of_string} reads. *)
val to_string : t -> string

(** Parse a v6 bundle.  Any other head (v1–v5 included), or an
    unknown, duplicate or missing header key, or a malformed value, is
    an [Error] naming it; never an exception. *)
val of_string : string -> (t, string) result

(** Serialize into [dir] (created if missing) as
    [crash-NNN-<stage>.bundle], claiming the first free NNN from a
    process-wide counter; returns the path. *)
val write : dir:string -> t -> (string, string) result

val read : string -> (t, string) result

(** Create a directory and its missing parents. *)
val mkdir_p : string -> unit
