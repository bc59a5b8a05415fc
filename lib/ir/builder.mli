(** Convenience constructors for fully-typed ops.

    Each function builds one op and returns it; value-producing ops get a
    fresh result value of the right type.  Constructors are pure —
    sequencing into a region body is the caller's job, usually through
    {!Seq}, which keeps transformation code that rebuilds regions
    straightforward. *)

val const_int : ?dtype:Types.dtype -> int -> Op.op
val const_float : ?dtype:Types.dtype -> float -> Op.op
val binop : Op.binop -> Value.t -> Value.t -> Op.op
val cmp : Op.cmp_pred -> Value.t -> Value.t -> Op.op
val select : Value.t -> Value.t -> Value.t -> Op.op
val cast : Types.dtype -> Value.t -> Op.op
val math : Op.math_fn -> Value.t list -> Op.op

(** [alloc ?space elem shape dyn_sizes] heap-allocates a memref; one
    element of [dyn_sizes] per [None] in [shape]. *)
val alloc :
  ?space:Types.space -> Types.dtype -> int option list -> Value.t list -> Op.op

(** Stack allocation; static shape only. *)
val alloca : ?space:Types.space -> Types.dtype -> int option list -> Op.op

val dealloc : Value.t -> Op.op
val load : Value.t -> Value.t list -> Op.op

(** [store v m idxs] stores [v] into [m] at [idxs]. *)
val store : Value.t -> Value.t -> Value.t list -> Op.op

val copy : src:Value.t -> dst:Value.t -> Op.op
val dim : Value.t -> int -> Op.op

(** [for_ ~lo ~hi ~step body] builds an [scf.for]; [body] receives the
    fresh induction variable. *)
val for_ : lo:Value.t -> hi:Value.t -> step:Value.t -> (Value.t -> Op.op list) -> Op.op

(** [for_iter ~lo ~hi ~step ~inits body] builds an [scf.for] carrying
    one iter_arg per init; [body] receives the iv and the iter_args and
    must end in a {!yield_} of the next values.  The results have the
    inits' types. *)
val for_iter :
  lo:Value.t ->
  hi:Value.t ->
  step:Value.t ->
  inits:Value.t list ->
  (Value.t -> Value.t array -> Op.op list) ->
  Op.op

(** [scf.yield]: the terminator that hands values to an [scf.if]'s
    results or an [scf.for]'s next iteration. *)
val yield_ : Value.t list -> Op.op

(** [while_ ~cond_body ~body]: [cond_body] must end in {!condition}. *)
val while_ : cond_body:Op.op list -> body:Op.op list -> Op.op

val condition : Value.t -> Op.op

(** [if_ ?else_ ?results c then_]: with [results] (their types), both
    regions must end in a {!yield_} of matching values. *)
val if_ :
  ?else_:Op.op list -> ?results:Types.typ list -> Value.t -> Op.op list -> Op.op

(** [parallel kind ~lbs ~ubs ~steps body] builds an n-D parallel loop;
    [body] receives the fresh induction variables. *)
val parallel :
  Op.par_kind ->
  lbs:Value.t list ->
  ubs:Value.t list ->
  steps:Value.t list ->
  (Value.t array -> Op.op list) ->
  Op.op

(** The [polygeist.barrier] op. *)
val barrier : unit -> Op.op

val call : string -> ?ret:Types.typ -> Value.t list -> Op.op
val return_ : Value.t list -> Op.op

(** [func name params ?ret body] builds a function; [body] receives the
    parameter values. *)
val func :
  string ->
  (string * Types.typ) list ->
  ?ret:Types.typ ->
  (Value.t array -> Op.op list) ->
  Op.op

val module_ : Op.op list -> Op.op
val omp_parallel : Op.op list -> Op.op

val omp_wsloop :
  lbs:Value.t list ->
  ubs:Value.t list ->
  steps:Value.t list ->
  (Value.t array -> Op.op list) ->
  Op.op

val omp_barrier : unit -> Op.op

(** Mutable op sequence: the standard way to emit code.  [emit] appends
    and returns the op; [emitv] appends and returns its single result. *)
module Seq : sig
  type t

  val create : unit -> t
  val emit : t -> Op.op -> Op.op
  val emitv : t -> Op.op -> Value.t
  val to_list : t -> Op.op list
end
