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

(** The paper's two OpenMP-lowering axes: InnerSer vs InnerPar
    (Figs. 12–13), and [openmpopt], the Fig. 13 ablation that switches
    grid+block collapse, region fusion and region hoisting on or off
    together. *)
type options =
  { inner : inner_mode
  ; openmpopt : bool
  }

(** [Inner_serial] with [openmpopt] on. *)
val default_options : options

(** [default_options] with [inner = Inner_parallel]. *)
val inner_par_options : options

(** How many nested regions {!run} serialized and how many loops it
    collapsed, regions it fused and regions it hoisted; the last three
    are 0 with [openmpopt] off. *)
type report =
  { serialized : int
  ; collapsed : int
  ; fused : int
  ; hoisted : int
  }

val run : ?options:options -> Ir.Op.op -> report
