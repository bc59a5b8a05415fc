(** Static cost evaluation: a partial evaluator that walks the IR with a
    run's integer arguments and produces a simulated execution time on a
    machine model with a given thread count.  Compute scales with threads
    until memory bandwidth saturates; overheads (team spawns, barriers,
    worksharing chunks) are charged per the machine model.  Trip counts
    derived from the arguments are exact; a loop whose bounds depend on
    an enclosing serial loop's iv (a triangular or wavefront nest) is
    costed at that iv's mean over its trips; data-dependent ones fall
    back to a [trip] attribute or [default_trip]. *)

type sval =
  | Ki of int
  | Kf of float
  | Unk

type result =
  { seconds : float
  ; unknown_trips : int (** how often a default trip count was used *)
  }

val of_func :
  ?default_trip:int ->
  Machine.t ->
  threads:int ->
  Ir.Op.op ->
  string ->
  sval list ->
  result
