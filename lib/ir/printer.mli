(** MLIR-flavoured textual printer, used for golden tests, debugging and
    the CLI's [--emit-ir] mode.  The format is write-only; programs are
    constructed through {!Builder} or the CUDA frontend.

    [~locs:true] appends a [loc(line:col)] suffix to ops that carry a
    source location (default off, keeping golden output stable). *)

val op_to_string : ?locs:bool -> Op.op -> string
