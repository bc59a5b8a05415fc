(** Memory-to-register promotion, including across barriers
    (Sec. IV-B): promotion of scalar slots to SSA values (scf.if results
    and scf.for iter_args where control flow merges; a slot stays in
    memory across barriers and scf.while), store-to-load forwarding (a
    barrier between the pair does not kill it when no OTHER thread can
    write that address — the "current-thread hole"), dead-store
    elimination, and removal of allocations that are only ever stored
    to. *)

type report =
  { promoted_loads : int (** slot loads replaced by SSA values *)
  ; carried_values : int (** scf.if results and scf.for iter_args added *)
  ; forwarded_loads : int
  ; removed_stores : int
  ; removed_allocas : int
  }

val run : Ir.Op.op -> report
