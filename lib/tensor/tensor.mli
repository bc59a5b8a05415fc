(** Dense float tensors in NCHW layout — the data substrate for MocCUDA's
    cuDNN re-implementations. *)

type t =
  { data : float array
  ; shape : int array
  }

val numel : t -> int
val create : int array -> t
val of_array : int array -> float array -> t

(** Deterministic pseudo-random values in [-0.5, 0.5). *)
val rand : int -> int array -> t

val copy : t -> t
val get4 : t -> int -> int -> int -> int -> float
val set4 : t -> int -> int -> int -> int -> float -> unit
val get2 : t -> int -> int -> float
val set2 : t -> int -> int -> float -> unit
val add_inplace : t -> t -> unit
val max_abs_diff : t -> t -> float
val bytes : t -> int
