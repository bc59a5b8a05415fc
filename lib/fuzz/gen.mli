(** Seeded generator of well-formed mini-CUDA kernels.

    Every program is race-free and deterministic by construction (the
    [test_random] discipline: own-slot accesses within a barrier
    interval, cross-thread reads fenced on both sides), so the
    GPU-semantics interpreter's result is the unique correct answer and
    any post-stage divergence found by {!Oracle} is a transformation
    bug.  The phase mix is biased toward the constructs the
    barrier-lowering passes must get right: values live across barriers
    (min-cut), loops containing uniform barriers (interchange, thread-0
    [while]-condition capture), write-after-read-protecting barriers
    (redundant-barrier elimination), thread-0 reductions,
    block-uniform branches, guards pinning the thread id to different
    values around a barrier, and the guards, power-of-two divisions and
    one-trip loops canonicalization's integer range facts decide. *)

type cfg =
  { threads : int (** block width: 4 or 8, drawn from the seed *)
  ; n : int (** total output elements, [blocks * threads] *)
  }

(** The generated program: kernel [k] plus host entry
    [void launch(float* out, float* in)].  Same seed, same source. *)
val source : seed:int -> string

(** Tensor-shaped programs ([fuzz --gen-tensor]): seeded
    cooperative-load shared-memory GEMMs, tiled GEMMs with a ragged k
    edge, ring stencils with double buffering, unrolled tree reductions
    and global-memory dot rows —
    the dataflow shapes of the MocCUDA kernel tier, still race-free by
    construction.  Same [launch] contract as {!source}. *)
val tensor_source : seed:int -> string

(** [source ~seed] with one seeded [__syncthreads] deleted — the racy
    mutant whose known-good minimal repair is re-inserting it.  Not
    every mutant is actually racy (some fences are redundant for the
    drawn phases): the repair campaign keeps only the ones the
    sanitizer flags. *)
val racy_source : seed:int -> string
