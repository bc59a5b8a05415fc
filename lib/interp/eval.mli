(** The GPU-semantics interpreter: ground truth for every transformation.

    Block-parallel loops run their threads as cooperative fibers (OCaml 5
    effect handlers) that all stop at each [polygeist.barrier] before any
    proceeds; OpenMP constructs run with a configurable team size, static
    worksharing chunks and explicit [omp.barrier] joins.  Divergent
    barriers (CUDA UB) and out-of-bounds accesses raise.

    Environments are dense slots, resolved per run: the first call of a
    function in a run maps each SSA definition of the function to a slot
    of an activation array and each operand to the slot of the
    definition in scope at its op, following the regions' scopes.  Each
    call gets a fresh activation; loops, ifs and barrier-free parallel
    loops rebind their slots in place, and each fiber (a GPU thread of a
    barrier block, an OpenMP team thread) runs on its own copy.  An
    operand with no definition in scope fails with "unbound SSA value"
    when its op runs.  Nothing is cached across runs, so a run sees the
    IR as it is, and runs on several domains share nothing. *)

type stats =
  { mutable ops : int
  ; mutable loads : int
  ; mutable stores : int
  ; mutable flops : int
  ; mutable barriers : int
  }

type state

(** [team_size] (default [4]) is the OpenMP team size, honored uniformly:
    it is both the number of team threads executing an [omp.parallel]
    region and the chunk denominator of [omp.wsloop] worksharing.  It
    does NOT affect GPU-level [scf.parallel] loops — those always run
    one logical thread per iteration-space point (the CUDA contract) and
    are never an OpenMP team, so a worksharing loop nested inside a
    barrier-synchronized block region is executed in full by every
    thread.  An [omp.wsloop] outside any [omp.parallel] behaves as a
    team of one (all iterations, in order). *)
val create : ?team_size:int -> ?fuel:int -> Ir.Op.op -> state

(** [static_chunk ~rank ~size ~n] is the contiguous [lo, hi) slice of
    rank [rank] in a team of [size] over [n] iterations: a balanced
    partition in which the first [n mod size] ranks take one extra
    iteration, so the ranges form a disjoint cover of [0, n) with
    chunk sizes differing by at most 1.  This is the single source of
    truth for static worksharing — [Runtime.Schedule.static_chunk]
    delegates here so the parallel runtime and the interpreter always
    agree bit-for-bit on partition-dependent results. *)
val static_chunk : rank:int -> size:int -> n:int -> int * int

(** [run ?team_size modul fname args] interprets the named host function;
    returns its result (if any) and the execution statistics.
    [team_size] defaults to [4]; see {!create} for its exact contract.
    [fuel], when given and non-negative, bounds the total op count:
    exceeding it raises [Mem.Runtime_error] ("interpreter fuel
    exhausted").  The fuzzer and test-case reducer rely on this so a
    reduction candidate that loops forever fails instead of hanging.
    @raise Mem.Runtime_error on memory faults, barrier divergence, etc. *)
val run :
  ?team_size:int ->
  ?fuel:int ->
  Ir.Op.op ->
  string ->
  Mem.rv list ->
  Mem.rv option * stats
