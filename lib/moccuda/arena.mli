(** Tensor arena for the graph executor: rank-1 F64 buffers pooled by
    element count.  Grab intermediates during a pass, read the outputs,
    then {!reset}; after the first pass every grab is a reuse, so warm
    passes allocate no tensor storage. *)

type t

val create : unit -> t

(** A zero-filled F64 buffer of [n] elements, owned by the caller until
    the next {!reset}. *)
val grab : t -> int -> Interp.Mem.buffer

(** Return every buffer grabbed since the last reset to the pool.
    Buffers handed out before the call must not be read afterwards. *)
val reset : t -> unit

val allocs : t -> int (** fresh allocations so far *)

val reuses : t -> int (** grabs served from the pool *)
