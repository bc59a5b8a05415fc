(** Multicore execution engine for the lowered OpenMP dialect.

    Where {!Interp.Eval} is a tree-walking interpreter (boxed runtime
    values in activation arrays whose slots it resolves on every run,
    cooperative fibers), this engine {e compiles} a function to OCaml
    closures over three typed register files — an [int array], a
    [float array] and a [buffer array] indexed by dense per-function
    slots — and runs [omp.parallel] regions on OCaml 5 domains from a
    persistent {!Pool}.

    {2 Register-direct compilation}

    Every op is compiled against its operands' register slots, which
    are known at compile time.  A scalar op is one closure per op kind
    reading [iregs]/[fregs] at fixed indices, so no float is boxed and
    no operand-getter closure runs.  Where a literal settles something
    at compile time (the zero test of a divisor, the branch of an
    [scf.if]) the value of an [arith.constant] in scope is used.  An operand of the other slot kind (an int
    read as a float, a truncating cast) is first converted into a
    temporary register.  Regions of at most four ops chain their
    closures directly.

    {2 Access paths}

    A load or store compiles to a {e checked} path that reads the index
    registers directly and inlines the rank test, the bounds tests (in
    {!Mem.lindex}'s order, with its messages) and the [Fdata]/[Idata]
    dtype dispatch: one specialized closure per rank up to 3, a loop
    over the index slots above; no rank allocates.  A bounds violation
    fails with exactly the interpreter's error.  An access that
    compile-time facts prove in bounds (its buffer an alloc of literal
    dims, its indices affine in constants and loop ivs of literal
    ranges) takes the {e proven} path instead: one flat offset into the
    data array and no test of its own, OCaml's array check kept.  A
    [acc + load * load] loop, guarded or not by an [scf.if] on each
    trip, runs as one closure ({!decisions} counts both).  Every loop
    body is compiled once, so compile cost is linear in the IR.

    {2 Launch lifecycle}

    The first team launch builds a persistent team state: one
    cache-line-padded frame per thread plus the team barrier.  Every
    later launch (same domain count) only blits the master's register
    files into those frames and posts a cached job closure — the steady
    state allocates nothing, which {!stats.frames_allocated} proves.
    SSA scalars are per-thread (the blit), buffers stay shared by
    reference — exactly the interpreter's sharing structure.

    [omp.wsloop] partitions its linearized iteration space by
    {!Schedule.policy}; [Static] reproduces the serial interpreter's
    balanced contiguous chunks bit-for-bit.  A chunk of a
    multi-dimensional loop delinearizes its first position once and
    then advances the ivs like an odometer, in the interpreter's order
    (dim 0 fastest).  [omp.barrier] is a sense-reversing {!Barrier}; a
    team member that dies poisons it so the team unwinds instead of
    deadlocking (and the poisoned team state is rebuilt on the next
    launch).

    Scalar semantics mirror the interpreter exactly: all float
    arithmetic in double precision, f32 rounding only at [f32]
    constants and [cast] to f32, integer division by zero fails.

    GPU-dialect ops that need fiber scheduling ([polygeist.barrier],
    [scf.parallel] containing barriers) are rejected at compile time
    with {!Unsupported} — the driver treats that, like any runtime
    failure, as one more degradation rung and falls back to the serial
    interpreter. *)

open Ir
open Interp

(** The module/function cannot be compiled for multicore execution
    (e.g. it still contains GPU barrier semantics). *)
exception Unsupported of string

(** Raised inside a team by [--inject-fault runtime:...]: exercises the
    poison/unwind path and the driver's degradation to serial. *)
exception Injected

(** A fault injected into one team rank mid-launch: [Raise] raises
    {!Injected}; [Hang] parks the rank in a non-terminating loop that
    only the watchdog's cancel ends (use it with [timeout_ms]). *)
type fault =
  | Raise
  | Hang

(** The run exceeded its wall-clock bound ([timeout_ms], carried) and
    the {!Watchdog} cancelled it: the cancel flag is observed at
    while-loop back-edges and worksharing grabs, and ranks asleep at a
    barrier are woken by poisoning it.  The driver treats this like any
    other runtime failure — degrade to the serial interpreter on fresh
    arguments, exit 1. *)
exception Timeout of int

type stats =
  { mutable launches : int (** [omp.parallel] team launches *)
  ; mutable barrier_phases : int (** completed barrier phases, summed *)
  ; mutable domain_spawns : int (** [Domain.spawn]s this run caused *)
  ; mutable chunks_grabbed : int
    (** worksharing ranges executed: one per thread per static wsloop,
        one per successful atomic grab for dynamic/guided *)
  ; mutable frames_allocated : int
    (** register-file frames built this run; 0 on the second and later
        runs of a compiled kernel, whose teams are reused *)
  }

type compiled

(** Compile [name] (and everything it calls) in [modul].
    @raise Unsupported if the function uses GPU-only constructs. *)
val compile : Op.op -> string -> compiled

(** What {!compile} decided, summed over every function it compiled. *)
type decisions =
  { proven : int
    (** loads and stores compiled as one flat offset into the data
        array, with no sentinel, rank or bounds test, because their
        indices are proven inside their buffer's literal dims; the
        loads of a fused dot loop count when the loop runs proven *)
  ; dots : int (** [scf.for] loops fused into one dot-product closure *)
  ; guarded_dots : int
    (** fused dot loops whose trips are guarded by an [scf.if] *)
  }

val decisions : compiled -> decisions

(** Execute a compiled function.

    [domains] (default 4) is the team size of every top-level
    [omp.parallel]; [1] is the deterministic single-domain mode (no
    worker domains, everything on the caller, static partition).
    [schedule] (default [Static]) picks the worksharing policy, and
    [chunk] the batch size of each dynamic/guided atomic grab (see
    {!Schedule.next}).  The team state (frames, barrier) persists in
    the [compiled] value and the team itself in the calling domain's
    cached {!Pool}, so a repeated launch at the same team size spawns
    no domain and allocates no frame.  [fault] injects a {!fault} into
    the last rank of every team launch.  [timeout_ms] (default [0] = unbounded) arms the
    {!Watchdog} for the whole run and raises {!Timeout} on expiry.

    Not thread-safe: one [run] at a time per [compiled].  The entry
    frame and team frames persist inside [compiled] between runs (they
    are what makes repeated launches allocation-free), so a [compiled]
    value retains its last run's buffers until the next run rebinds
    them.

    @raise Mem.Runtime_error on the same conditions as the interpreter. *)
val run :
  ?domains:int ->
  ?schedule:Schedule.policy ->
  ?chunk:int ->
  ?fault:fault ->
  ?timeout_ms:int ->
  compiled ->
  Mem.rv list ->
  Mem.rv option * stats

(** [compile] + [run] in one step. *)
val run_module :
  ?domains:int ->
  ?schedule:Schedule.policy ->
  ?chunk:int ->
  ?fault:fault ->
  ?timeout_ms:int ->
  Op.op ->
  string ->
  Mem.rv list ->
  Mem.rv option * stats
