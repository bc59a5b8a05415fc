(** May-happen-in-parallel analysis over one block-parallel region.

    The kernel body is partitioned into {e barrier intervals}: interval
    0 opens at the region entry, and every [polygeist.barrier] closes
    the intervals reaching it and opens a fresh one.  A forward dataflow
    computes, for every op, which intervals can be {e live} when the op
    executes — as two sets, the intervals reached without crossing a
    loop back-edge ([unshifted]) and those reached after at least one
    back-edge since the interval opened ([shifted], where serial-loop iv
    equalities no longer hold).  Loops around barriers converge by a
    fixpoint over the back-edge; a barrier under a branch splits
    membership along the two paths, which is exactly the guarded-barrier
    interval structure the repair search needs.

    Two accesses can race only when their ops may occupy the same
    dynamic interval instance; the candidate pairs come from the same
    barrier-free forward reachability the effect analysis uses
    ({!Effects.effects_after}), and the dataflow annotates each pair
    with its interval ids and with the legal barrier insertion points
    that would separate it.  {!Race} keeps the classification policy;
    this module owns the mechanism. *)

(** {2 Thread-dependence helpers}

    (Shared by the divergence and race checks; the taint is the
    may-differ-between-threads relation of DESIGN.md §4.) *)

(** The condition value of a [While] op: the operand of the [Condition]
    terminator of its cond region. *)
val while_cond_value : Ir.Op.op -> Ir.Value.t option

(** Memoized thread-dependence taint: can the value differ between two
    threads of one block at the same lock-step point? *)
val mk_taint : Effects.ctx -> Ir.Value.t -> bool

(** {2 The interval dataflow} *)

type t

(** Run the dataflow over [par] (a [Parallel Block] op); [ctx] must have
    been built with [~par]. *)
val analyze : Effects.ctx -> Ir.Op.op -> t

val ctx : t -> Effects.ctx
val par : t -> Ir.Op.op

(** The taint used during the analysis (same relation as {!mk_taint}). *)
val taint : t -> Ir.Value.t -> bool

(** Number of intervals: 1 (entry) + one per reachable barrier. *)
val interval_count : t -> int

(** The interval a barrier opens, when the dataflow reached it. *)
val barrier_opens : t -> Ir.Op.op -> int option

(** Intervals arriving at a barrier — the ones it closes — as
    (unshifted, shifted) sorted id lists. *)
val barrier_closes : t -> Ir.Op.op -> (int list * int list) option

(** Interval membership of an op inside [par]: (unshifted, shifted)
    sorted id lists; [None] when the op was not reached (not in the
    region). *)
val intervals_at : t -> Ir.Op.op -> (int list * int list) option

(** {2 Access-bearing leaves} *)

(** A load/store/copy/dealloc/call with shared-visible accesses, plus
    the guard context the plain effect scan does not track. *)
type leaf =
  { l_op : Ir.Op.op
  ; l_accs : Effects.access list
  ; l_pinned : Affine.expr Ir.Value.Map.t
        (** thread ivs pinned by enclosing [if (tid == e)] guards, each
            to its [e] *)
  ; l_guarded : bool
        (** some enclosing condition is thread-dependent without
            pinning — a conflict under it is never definite *)
  }

val leaves : t -> leaf list

(** {2 Conflict candidates} *)

(** A conservatively conflicting access pair that may share a dynamic
    interval instance ({!Effects.cross_thread_conflict} holds).  The
    [cf_a] side is the leaf the pair was discovered from; [cf_b] either
    a sibling access of the same leaf or one reachable forward of it
    before the next barrier.  Shifted pairs cross a loop back-edge:
    both accesses have loop-iv dimensions dropped and pins cleared. *)
type conflict =
  { cf_a : Effects.access
  ; cf_ga : bool (** [l_guarded] of the [cf_a] leaf *)
  ; cf_b : Effects.access
  ; cf_gb : bool
  ; cf_intervals : int * int (** static home intervals of the two ops *)
  ; cf_shifted : bool (** pairing crosses a loop back-edge *)
  }

(** All candidate racing pairs of the region, in deterministic program
    order.  The race check classifies these; repair consumes the
    intervals and {!separation_points}. *)
val conflicts : t -> conflict list

(** {2 Barrier placement} *)

(** A legal barrier insertion point: inserting [Barrier] at [pt_index]
    of [pt_region]'s body (i.e. before the current [pt_index]-th op,
    or at the end when [pt_index] equals the body length) is
    verifier-legal and divergence-free (all enclosing control uniform).
    [pt_loc] is the location of the op the barrier lands before (the
    region holder's location for end-of-body points); [pt_rank] orders
    candidates, best (closest separating point) first. *)
type point =
  { pt_region : Ir.Op.region
  ; pt_index : int
  ; pt_loc : Ir.Srcloc.t option
  ; pt_rank : int
  }

(** Candidate insertion points separating the two ops of a conflicting
    pair, ranked.  For an unshifted pair these lie between the two
    subtrees in their deepest common region; for a shifted pair they
    cut the back-edge of the innermost common loop.  Empty when no
    barrier can separate them (same statement, exclusive branches,
    thread-dependent enclosing control). *)
val separation_points :
  t -> shifted:bool -> Ir.Op.op -> Ir.Op.op -> point list
