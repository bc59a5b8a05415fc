(** Values used by the ops (including nested regions) but not defined by
    them — their free values. *)
val free_values : Op.op list -> Value.Set.t
