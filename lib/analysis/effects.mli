(** Memory-effect analysis: the semantic foundation of
    [polygeist.barrier].

    A barrier's behaviour is defined as the union of read/write effects
    of the code reachable before it (up to the previous barrier or the
    region start) and after it (up to the next barrier or the region
    end), excluding accesses provably made only by the executing thread
    (Sec. III-A).  Barrier elimination, motion, and forwarding across
    barriers all reduce to conflict queries between access collections. *)

type kind =
  | Read
  | Write

type access =
  { base : Ir.Value.t option (** [None]: may touch any location *)
  ; acc_kind : kind
  ; idx : Affine.expr option list option
    (** [None]: unknown indexing; otherwise one affine form per dim *)
  ; pinned : Affine.expr Ir.Value.Map.t
    (** thread ivs pinned by enclosing [if (tid == e)] guards, each to
        its [e] *)
  ; livs : Ir.Value.Set.t
    (** serial-loop ivs (inside the parallel region) used in [idx] *)
  ; shifted : bool (** collected through loop wrap-around *)
  ; src : Ir.Op.op option
    (** the load/store/call the access was collected from, for
        diagnostics; [None] for synthetic/unknown accesses *)
  }

val mk_access :
  ?base:Ir.Value.t ->
  ?idx:Affine.expr option list ->
  ?pinned:Affine.expr Ir.Value.Map.t ->
  ?livs:Ir.Value.Set.t ->
  ?shifted:bool ->
  ?src:Ir.Op.op ->
  kind ->
  access

(** The access as seen across a loop wrap-around: [shifted] set, no
    pins, and every index dimension that mentions a serial-loop iv
    dropped (iv equalities, and a guard's pin, hold only within one
    iteration). *)
val shift_access : access -> access

(** {2 Call effect summaries} *)

type summary_item =
  { s_kind : kind
  ; s_param : int option (** [None]: unknown base *)
  }

type summaries

val new_summaries : unit -> summaries

(** Effects of calling the named function, in terms of its parameters;
    accesses to function-private allocations are omitted.  Recursive
    cycles and unknown callees degrade to unknown read+write. *)
val summarize : Ir.Op.op -> summaries -> string -> summary_item list

(** {2 Analysis context} *)

type ctx =
  { info : Info.t
  ; modul : Ir.Op.op option
  ; summaries : summaries
  ; par : Ir.Op.op option (** the block-parallel loop under analysis *)
  ; tids : Ir.Value.Set.t
  ; extents : int Ir.Value.Map.t
    (** each thread iv whose bounds are the literals [0, n), [n > 0],
        to [n]; recorded once by {!make_ctx} *)
  }

val make_ctx : ?modul:Ir.Op.op -> ?par:Ir.Op.op -> Info.t -> ctx

(** Thread ivs whose extent is statically 1 (always equal across
    threads). *)
val unit_tids : ctx -> Ir.Value.Set.t

(** Per-dimension affine forms (and serial-loop ivs used) of the index
    operands of a load/store. *)
val derive_idx :
  ctx -> Ir.Value.t array -> Affine.expr option list * Ir.Value.Set.t

(** Thread ivs pinned to an invariant value by an [if] condition: the
    condition is an equality comparison between a bare thread iv and a
    thread-invariant expression, and the iv maps to that expression. *)
val pinned_by_cond : ctx -> Ir.Value.t -> Affine.expr Ir.Value.Map.t

(** The pins that hold inside a guard: [inner]'s, then [outer]'s on the
    other ivs. *)
val add_pins :
  Affine.expr Ir.Value.Map.t ->
  Affine.expr Ir.Value.Map.t ->
  Affine.expr Ir.Value.Map.t

(** {2 Effect collection} *)

val collect_op :
  ctx -> pinned:Affine.expr Ir.Value.Map.t -> Ir.Op.op -> access list
val collect : ctx -> Ir.Op.op list -> access list

(** {2 Aliasing} *)

(** Where a memref base comes from, chasing casts. *)
type origin =
  | Oalloc of int (** oid of the allocating op *)
  | Oparam of int (** value id: function parameter / external value *)
  | Ounknown

val origin : Info.t -> Ir.Value.t -> origin

(** May two base pointers overlap?  Distinct allocations never; an
    allocation never aliases a parameter; distinct parameters are assumed
    noalias (documented in DESIGN.md). *)
val bases_may_alias : Info.t -> Ir.Value.t -> Ir.Value.t -> bool

(** {2 Conflict queries} *)

(** What equal addresses would tell about the two threads executing a
    pair of accesses: [Never] equal, or equal only when the thread ivs
    [ivs] agree in both threads — the unit-extent ivs, the ivs both
    accesses pin to the same value, and those the index dimensions force
    ({!Affine.compare_dim} with the ivs' extents; [Never] when the guards
    pin a forced iv apart: their gap is never 0 over the literal ranges
    of the loop ivs it mentions).  [exact]: the bases
    are one value and every dimension was decided, so — with
    thread-uniform symbols — threads that agree on [ivs] touch the same
    address.  The one pair decision behind the conflict queries below
    and the race check. *)
type meet =
  | Never
  | Forced of
      { ivs : Ir.Value.Set.t
      ; exact : bool
      }

val meet : ctx -> access -> access -> meet

(** Can the accesses, executed by two DIFFERENT threads, touch the same
    address with at least one write?  Not a read pair, and {!meet}
    leaves some thread iv free.  The test behind barrier
    elimination/motion. *)
val cross_thread_conflict : ctx -> access -> access -> bool

(** Can they touch the same address at all (same or different thread)?
    Used by the lock-step LICM check and the forwarding pass. *)
val any_thread_conflict : ctx -> access -> access -> bool

val conflicts_cross : ctx -> access list -> access list -> bool

(** Accesses reachable strictly forward of [at] (exclusive) before the
    next barrier / the end of [par], following branch, loop-exit and
    wrap-around paths; wrap-around copies come back with
    [shifted = true].  Pass [~shifted:false] at the top level. *)
val effects_after :
  ctx -> par:Ir.Op.op -> shifted:bool -> Ir.Op.op -> access list

(** {2 Barrier interval sets} *)

(** The two interval sets of a barrier (Sec. IV-A): effects reachable
    backward to the previous barrier / region start, and forward to the
    next barrier / region end, following loop entry, exit and wrap-around
    paths. *)
val barrier_intervals :
  ctx -> par:Ir.Op.op -> Ir.Op.op -> access list * access list
