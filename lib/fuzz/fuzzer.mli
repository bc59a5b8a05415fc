(** The differential fuzzing campaign: {!Gen} → {!Oracle} → {!Reduce} →
    crash bundle, deterministic given the seed.  Wall-clock appears only
    in the stats report, never in pass/fail decisions. *)

type finding =
  { fseed : int
  ; ffailure : Oracle.failure
  ; fsource : string (** the generated program *)
  ; freduced : string (** after shrinking; [= fsource] if irreducible *)
  ; fops : int (** IR ops of the reduced witness ({!Reduce.ir_ops}) *)
  ; fbundle : string option (** written bundle path, if any *)
  }

type report =
  { cases : int
  ; findings : finding list
  ; secs : float
  }

(** Run [cases] seeds starting at [seed].  Each failure is shrunk
    (unless [reduce] is [false]) and, when [crash_dir] is given, written
    as a crash bundle ({!Core.Crashbundle}) of kind [Fuzz], recording
    the generator seed and [timeout_ms].  [tensor] draws from {!Gen.tensor_source} instead of
    {!Gen.source}.  [progress done_ found] is called after each case. *)
val run_campaign :
  ?timeout_ms:int ->
  ?crash_dir:string ->
  ?reduce:bool ->
  ?tensor:bool ->
  ?progress:(int -> int -> unit) ->
  seed:int ->
  cases:int ->
  unit ->
  report

(** Human-readable stats: cases, cases/min, findings with their reduced
    sizes and bundle paths. *)
val report_to_string : report -> string

(** {2 The racy-repair campaign ([fuzz --gen-racy])} *)

type repair_finding =
  { pseed : int
  ; perrors : int (** sanitizer errors before repair *)
  ; pedits : int (** barrier edits applied (0 on failure) *)
  ; ptried : int (** candidates speculatively applied *)
  ; psecs : float (** search + validation wall-clock *)
  ; presult : (string list, string) result
    (** patch lines, or the failure reason *)
  }

type repair_report =
  { rscanned : int (** seeds examined *)
  ; rracy : int (** sanitizer-dirty mutants among them *)
  ; rfindings : repair_finding list (** one per racy mutant, seed order *)
  ; rsecs : float
  }

(** Scan seeds from [seed] until [racy] sanitizer-dirty mutants
    ({!Gen.racy_source}) are found (or [racy * 20] seeds are scanned)
    and run the analysis-guided repair search ({!Core.Repair}) on each,
    validating every sanitizer-clean repair against the differential
    oracle ({!Oracle.run_module}).  Deterministic apart from the timing
    fields. *)
val run_repair_campaign :
  ?timeout_ms:int ->
  ?progress:(int -> int -> unit) ->
  seed:int ->
  racy:int ->
  unit ->
  repair_report

(** Human-readable stats: mutants found and repaired, the median search
    time, each mutant's patch lines, and the candidates tried per
    accepted edit over the repaired ones. *)
val repair_report_to_string : repair_report -> string

(** Re-run the oracle on a fuzz bundle's embedded source; [Ok] iff the
    recorded stage and class still fail (the [--replay] path for
    bundles of kind [Fuzz]).  A bundle of another kind, or one recording
    [mincut: false] or a fault plan (the oracle runs the default
    pipeline only), is an [Error]. *)
val replay : Core.Crashbundle.t -> (string, string) result
