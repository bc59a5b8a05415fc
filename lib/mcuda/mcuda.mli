(** The MCUDA baseline (Stratton et al., LCPC 2008) — the Fig. 12
    comparator: deep fission at synchronization points BEFORE any
    optimization (no barrier elimination, no cross-barrier mem2reg, no
    min-cut), outermost-loop-only parallelization, generic scalar
    cleanups only afterwards (the "downstream C compiler"). *)

(** Lower a frontend-produced module the way MCUDA would. *)
val lower : Ir.Op.op -> unit

val compile : string -> Ir.Op.op
