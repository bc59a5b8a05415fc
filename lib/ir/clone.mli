(** Deep copy of ops/regions with SSA value remapping.

    Cloning allocates fresh result values and region arguments and
    rewrites every operand through the substitution table, so the clone
    is valid independent IR.  Pre-seed the table to redirect free uses
    (e.g. replace an induction variable when moving a loop body under a
    new loop). *)

type subst = Value.t Value.Tbl.t

val create_subst : unit -> subst
val add_subst : subst -> from:Value.t -> to_:Value.t -> unit

(** Identity on unmapped values. *)
val lookup : subst -> Value.t -> Value.t

(** Clone one op; results are remapped in [subst] so later clones see
    them. *)
val clone_op : subst -> Op.op -> Op.op

val clone_region : subst -> Op.region -> Op.region

(** Clone with a fresh private substitution. *)
val clone_op_fresh : Op.op -> Op.op

(** Clone a list sharing one substitution (defs in earlier ops are
    visible to later ones). *)
val clone_ops : subst -> Op.op list -> Op.op list

(** Snapshot of an op: fresh op and region records and arrays, sharing
    the original's immutable {!Value.t}s.  Later in-place mutation of
    the original (new operand/region arrays, bodies, attrs, locs) leaves
    the snapshot untouched.  Costs O(IR), with no value allocation or
    substitution.  Because values are shared, a snapshot must never be
    spliced into the module it was taken from — every value would be
    defined twice; use {!restore}, or {!clone_op_fresh} for an
    independent copy. *)
val snapshot : Op.op -> Op.op

(** [restore ~into snap] transplants a fresh copy of [snap]'s mutable
    fields (operands, regions, attrs, loc) into [into], rolling the op
    back to the snapshotted state with the snapshotted values.  The
    snapshot itself is not consumed: it can be restored any number of
    times.  Intended for module roots (ops whose results have no
    external uses). *)
val restore : into:Op.op -> Op.op -> unit

(** Equality up to SSA renaming: kinds, attributes and region shapes
    match, and values correspond under one consistent bijection.  Used
    by tests to check a rollback restored the pre-stage IR exactly. *)
val structural_equal : Op.op -> Op.op -> bool
