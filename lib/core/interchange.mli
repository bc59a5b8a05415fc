(** Parallel loop interchange (Sec. III-B2): moving a block-parallel loop
    inside the single barrier-containing construct of its body — a serial
    [for] (uniform bounds, published by thread (0,..,0) through helper
    memrefs when computed per-thread), an [if] (uniform condition,
    likewise), or a [while] (the Fig. 8 helper-variable pattern). *)

exception Unsupported of string

(** [interchange_result modul par] rewrites [par]; [Ok None] when the
    body shape does not match (the caller falls back to isolation
    splitting), [Error] when the prefix/suffix cannot legally move — the
    structured boundary the fault-tolerant pass manager consumes. *)
val interchange_result :
  Ir.Op.op -> Ir.Op.op -> (Ir.Op.op list option, string) result
