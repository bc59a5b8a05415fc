(** Lowering of barrier-free parallel loops to the OpenMP dialect, with
    the Sec. IV-D block-parallelism optimizations: grid+block collapse,
    parallel-region fusion (Fig. 10), region hoisting out of serial loops
    (Fig. 11), and inner-loop serialization ("PolygeistInnerSer"). *)

(** Raised by {!run} on a parallel loop nested inside an [scf.if] with
    results or an [scf.for] with iter_args (IR the verifier rejects). *)
exception Unsupported of string

type inner_mode =
  | Inner_parallel (** keep nested regions: "PolygeistInnerPar" *)
  | Inner_serial (** serialize nested regions: "PolygeistInnerSer" *)

type options =
  { inner : inner_mode
  ; fuse : bool
  ; hoist : bool
  ; collapse : bool
  }

val default_options : options

(** [default_options] with [inner = Inner_parallel]. *)
val inner_par_options : options

type report =
  { serialized : int
  ; collapsed : int
  ; fused : int
  ; hoisted : int
  }

val run : ?options:options -> Ir.Op.op -> report
