(** Persistent domain pool: the paper's "avoid re-spawning threads"
    runtime optimization (Sec. IV-D).

    A pool of [n] threads is the calling domain (rank 0) plus [n-1]
    worker domains parked on a condition variable.  {!run} hands every
    member the same job and returns when all of them finish, so a kernel
    launch costs two condvar round-trips instead of [n-1]
    [Domain.spawn]s.

    {!get} returns the calling domain's cached pool (creating or
    resizing it as needed) — teams persist across kernel launches.  The
    cache is domain-local, so each of the compile service's executor
    lanes owns an independent pool and a poisoned or torn-down team in
    one lane never touches another; a single-domain process (the
    one-shot CLI) has one process-wide pool.

    A pool of size 1 has no workers: {!run} calls the job directly on
    the caller, which is the deterministic single-domain mode. *)

type t

(** Cumulative number of [Domain.spawn]s performed by this module, for
    stats and for testing team reuse. *)
val total_spawns : unit -> int

(** [get ~domains] returns the calling domain's cached pool of
    [domains] threads, created on first use and recreated when the size
    changes.  A failed creation (OCaml's domain limit) leaves no pool
    cached, so the next [get] builds a fresh one.
    @raise Failure when [Domain.spawn] does; the members already
    spawned are stopped first. *)
val get : domains:int -> t

(** [run t job] executes [job rank] on every member (rank 0 on the
    caller) and waits for all of them.  If members raise, one of the
    exceptions is re-raised here after every member has stopped. *)
val run : t -> (int -> unit) -> unit

(** Stop the calling domain's cached pool, if any: signal every worker
    to stop, join the ones between jobs and abandon any wedged mid-job
    (an OCaml domain cannot be killed), without ever blocking on a
    poisoned team; return the number of worker domains it had to leak.  After a
    failed launch the CLI and the job fault wall call this so the next
    launch builds a fresh team through {!get}; executor lanes call it
    as they exit so their teams don't outlive them. *)
val shutdown_cached : unit -> int
