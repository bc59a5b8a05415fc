(** Barrier elimination and motion (Sec. IV-A): a barrier is redundant
    when its before/after interval effect sets contain no cross-thread
    conflict beyond read-after-read.  Barriers are removed one at a time
    with re-analysis (two independently-redundant barriers may each rely
    on the other). *)

(** Returns the number of barriers eliminated. *)
val run : Ir.Op.op -> int

(** Motion in hoisting form: a barrier leading an [if] body moves before
    the [if] when the speculative placement subsumes it.  Returns the
    number moved. *)
val hoist_edge_barriers : Ir.Op.op -> int

