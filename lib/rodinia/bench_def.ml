(* Benchmark definitions shared by the Rodinia suite, the test harness and
   the figure-regeneration benches.

   Each benchmark carries its CUDA source, the hand-written OpenMP
   reference where Rodinia has one (written with [#pragma omp parallel
   for]), a workload generator for small interpreter-scale runs, and the
   argument shape for paper-scale cost-model runs. *)

type workload =
  { buffers : Interp.Mem.buffer array
  ; scalars : int list
  }

type t =
  { name : string
  ; description : string
  ; cuda_src : string
  ; omp_src : string option
  ; entry : string (* host entry point; same signature in both sources *)
  ; has_barrier : bool
  ; mk_workload : int -> workload (* size -> fresh inputs *)
  ; test_size : int (* differential-test size (interpreted) *)
  ; paper_size : int (* cost-model size (analytic) *)
  ; cost_scalars : int -> int list (* size -> trailing int args *)
  ; n_buffers : int
  }

let args_of_workload (w : workload) : Interp.Mem.rv list =
  Array.to_list (Array.map (fun b -> Interp.Mem.Buf b) w.buffers)
  @ List.map (fun n -> Interp.Mem.Int n) w.scalars

let cost_args (b : t) (size : int) : Runtime.Cost.sval list =
  List.init b.n_buffers (fun _ -> Runtime.Cost.Unk)
  @ List.map (fun n -> Runtime.Cost.Ki n) (b.cost_scalars size)

(* Deterministic pseudo-random floats in [0,1). *)
let frand seed =
  let state = ref (seed * 2654435761 land 0x3FFFFFFF) in
  fun () ->
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    float_of_int !state /. 1073741824.0

let fbuf seed n =
  let r = frand seed in
  Interp.Mem.of_float_array (Array.init n (fun _ -> r ()))

let fzero n = Interp.Mem.of_float_array (Array.make n 0.0)
let izero n = Interp.Mem.of_int_array (Array.make n 0)
