(* MCUDA baseline (Stratton et al., LCPC 2008) — the Fig. 12 comparator.

   MCUDA is an AST-level source-to-source tool: it applies "deep fission"
   at synchronization points directly on the C AST and emits new C code
   whose outermost (block) loop is parallelized; inner (thread) loops run
   serially inside each block iteration.  Because it runs *before* any
   compiler optimization, it cannot:

   - eliminate redundant barriers (no memory-effect analysis at AST level),
   - promote memory to registers across barriers,
   - minimize the data cached across fissions (it preserves every live
     value rather than computing a min-cut),
   - fuse or hoist the resulting parallel regions.

   Generic scalar optimizations still happen later, when the emitted C is
   compiled by a conventional compiler.

   We model MCUDA behaviourally on the shared IR with exactly that
   ordering: frontend output -> immediate fission (no pre-optimization,
   no min-cut) -> outer-loop-only OpenMP lowering (inner serialization,
   no region fusion/hoisting) -> only then generic cleanups. *)

let options : Core.Omp_lower.options =
  { Core.Omp_lower.inner = Core.Omp_lower.Inner_serial; openmpopt = false }

(* Lower a module produced by the CUDA frontend the way MCUDA would. *)
let lower (m : Ir.Op.op) : unit =
  (* no barrier elimination, no mem2reg, no LICM before fission; the
     fission itself preserves every live value (no min-cut) *)
  Core.Cpuify.run ~use_mincut:false m;
  ignore (Core.Omp_lower.run ~options m);
  (* the "downstream C compiler": generic scalar optimizations, including
     ordinary (barrier-oblivious) memory-to-register promotion — by now
     fission has removed every barrier, so plain forwarding applies *)
  Core.Canonicalize.run m;
  Core.Cse.run m;
  ignore (Core.Mem2reg.run m);
  Core.Canonicalize.run m;
  Core.Cse.run m

let compile (src : string) : Ir.Op.op =
  let m = Cudafe.Codegen.compile src in
  lower m;
  m
