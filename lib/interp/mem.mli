(** Runtime memory for the interpreter: buffers backing memrefs and
    runtime scalar values.  Loads/stores are bounds-checked, so
    transformation bugs surface as failures instead of silent
    corruption. *)

type data =
  | Fdata of float array
  | Idata of int array

type buffer =
  { elem : Ir.Types.dtype
  ; dims : int array
  ; data : data
  ; bufid : int
  }

type rv =
  | Int of int
  | Flt of float
  | Buf of buffer

exception Runtime_error of string

(** Raise {!Runtime_error} with a formatted message. *)
val fail : ('a, unit, string, 'b) format4 -> 'a

val alloc_buffer : Ir.Types.dtype -> int array -> buffer
val size : buffer -> int
val load : buffer -> int array -> rv
val store : buffer -> int array -> rv -> unit

(** Bounds-checked row-major linear index (same checks as
    {!load}/{!store}); feeds the typed accessors below, which read and
    write without boxing an {!rv}.  Cross-dtype accesses convert like
    {!store} does. *)
val lindex : buffer -> int array -> int

(** The two failures of {!lindex}: [rank_mismatch b n] for [n]
    indices into [b], [out_of_bounds b ix d] for index [ix] in
    dimension [d].  The compiled runtime's inline access checks raise
    these too, so both engines fail with the same text. *)
val rank_mismatch : buffer -> int -> 'a

val out_of_bounds : buffer -> int -> int -> 'a

(** Fails on the first non-positive step of a parallel loop
    ([scf.parallel], [omp.wsloop]), naming the step and its dimension.
    Both engines check their steps with it, so they fail with the same
    text. *)
val check_par_steps : int array -> unit

val get_f : buffer -> int -> float
val set_f : buffer -> int -> float -> unit
val set_i : buffer -> int -> int -> unit

(** Commutative digest of the given buffers: the sum of per-element
    hashes of (buffer position, element index, bit pattern).  Integer
    summation makes it independent of traversal and execution order, so
    serial and parallel executions of the same race-free program produce
    bit-identical checksums; any single-element difference changes it
    with overwhelming probability. *)
val checksum : buffer array -> float
val copy : src:buffer -> dst:buffer -> unit
val as_int : rv -> int
val as_int_or_trunc : rv -> int
val as_float : rv -> float
val as_buf : rv -> buffer
val of_float_array : ?dims:int array -> float array -> buffer
val of_int_array : ?dims:int array -> int array -> buffer
val float_contents : buffer -> float array
val int_contents : buffer -> int array
