(** The barrier-lowering driver (the paper's [-cpuify]): applies parallel
    loop splitting and interchange to fixpoint until no
    [polygeist.barrier] remains, plus the standard optimization pipeline
    run around it. *)

exception Stuck of string

(** Why barrier lowering failed, reified so the fault-tolerant pass
    manager can roll back and degrade instead of unwinding. *)
type error =
  | Did_not_converge of { budget : int }
  | Cannot_lower of
      { op_text : string
      ; loc : Ir.Srcloc.t option
            (** source location of the first remaining barrier *)
      ; remaining_barriers : int
      }
  | Unsupported of
      { what : string
      ; loc : Ir.Srcloc.t option
      ; remaining_barriers : int
      }
  | Barriers_remain of { remaining_barriers : int }

val error_to_string : error -> string

(** Number of [polygeist.barrier] ops anywhere inside the op. *)
val count_barriers : Ir.Op.op -> int

(** Default fixpoint iteration budget (10000). *)
val default_budget : int

(** Barrier lowering only; [budget] bounds the fixpoint iteration count
    (default {!default_budget}). *)
val run_result :
  ?use_mincut:bool -> ?budget:int -> Ir.Op.op -> (unit, error) result

(** {!run_result} with failures raised as [Stuck]; the message carries
    the remaining-barrier count and the [line:col] of the first
    remaining barrier.  @raise Stuck if a barrier cannot be lowered. *)
val run : ?use_mincut:bool -> Ir.Op.op -> unit

(** The 13 passes of {!pipeline} as a named list, so drivers can
    interleave verification or checking between them
    ([-check-after-each-pass]): canonicalize, cse, mem2reg, canonicalize,
    cse, licm, barrier-elim, cpuify, canonicalize, cse, mem2reg, licm,
    canonicalize.  The cpuify stage runs with {!default_budget}. *)
val pipeline_stages : unit -> (string * (Ir.Op.op -> unit)) list

(** The sanitizer's cleanup prefix: canonicalize, cse, mem2reg,
    canonicalize.  {!Analysis.Kernelcheck} reads index expressions
    syntactically and needs this normalized IR before it checks. *)
val cleanup : Ir.Op.op -> unit

(** Unique stage names of {!pipeline_stages}, in pipeline order — the
    vocabulary fault plans draw from. *)
val stage_names : unit -> string list

(** Cleanups, barrier-specific optimizations, barrier lowering, cleanups —
    the full pipeline preceding OpenMP lowering. *)
val pipeline : Ir.Op.op -> unit
