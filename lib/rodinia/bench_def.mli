(** Benchmark definitions shared by the Rodinia suite, the tests and the
    figure-regeneration benches: CUDA source, the hand-written OpenMP
    reference where Rodinia has one, a workload generator for
    interpreter-scale runs, and the argument shape for paper-scale
    cost-model runs. *)

type workload =
  { buffers : Interp.Mem.buffer array
  ; scalars : int list
  }

type t =
  { name : string
  ; description : string
  ; cuda_src : string
  ; omp_src : string option
  ; entry : string
  ; has_barrier : bool
  ; mk_workload : int -> workload
  ; test_size : int
  ; paper_size : int
  ; cost_scalars : int -> int list
  ; n_buffers : int
  }

val args_of_workload : workload -> Interp.Mem.rv list
val cost_args : t -> int -> Runtime.Cost.sval list

(** Deterministic pseudo-random generator in [0,1). *)
val frand : int -> unit -> float

val fbuf : int -> int -> Interp.Mem.buffer
val fzero : int -> Interp.Mem.buffer
val izero : int -> Interp.Mem.buffer
