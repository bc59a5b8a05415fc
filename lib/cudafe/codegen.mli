(** Lowering of the mini-CUDA AST into the parallel IR (Sec. III): a
    kernel launch becomes, at the host call site, a grid-level parallel
    loop containing per-block shared-memory allocations and a
    block-level parallel loop whose body is the kernel with
    [__syncthreads] as [polygeist.barrier].  Mutable C locals become
    rank-0 allocas ({!Core.Mem2reg} later promotes them, including across
    barriers); canonical [for] loops raise to [scf.for]; warp shuffle
    primitives are emulated through per-block scratch and barriers. *)

exception Error of string

(** Parse + compile mini-CUDA source into a module. *)
val compile : string -> Ir.Op.op
