(** Types of the mini-MLIR: scalars and multi-dimensional memory
    references with a memory space, mirroring the MLIR subset the
    Polygeist GPU-to-CPU pipeline manipulates. *)

(** Scalar element types. *)
type dtype =
  | I1
  | I32
  | I64
  | Index
  | F32
  | F64

(** Memory space of a memref.  [Shared] corresponds to CUDA [__shared__]
    memory (a per-block stack allocation after lowering); [Local] is
    per-thread scratch (mutable-local slots, fission caches); [Global] is
    ordinary heap/parameter memory. *)
type space =
  | Global
  | Shared
  | Local

type typ =
  | Scalar of dtype
  | Memref of
      { elem : dtype
      ; shape : int option list
        (** [Some n] static extent, [None] dynamic ([?]) *)
      ; space : space
      }

val is_float_dtype : dtype -> bool
val is_int_dtype : dtype -> bool

(** Size in bytes of one element (used by the cost model). *)
val dtype_bytes : dtype -> int

(** [memref ?space elem shape] builds a memref type ([space] defaults to
    [Global]). *)
val memref : ?space:space -> dtype -> int option list -> typ

val dtype_to_string : dtype -> string
val to_string : typ -> string
val equal : typ -> typ -> bool

(** Element type of a memref. @raise Invalid_argument on scalars. *)
val elem_dtype : typ -> dtype

(** Underlying dtype of a scalar. @raise Invalid_argument on memrefs. *)
val scalar_dtype : typ -> dtype

(** Rank of a memref. @raise Invalid_argument on scalars. *)
val rank : typ -> int
