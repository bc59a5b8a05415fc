(** The kernel manager: a compile-once cache over {!Kernels} sources,
    each compiled through the full pipeline (frontend -> fault-tolerant
    barrier lowering via {!Core.Passmgr} with the default pipeline
    options -> OpenMP lowering -> verifier -> the compiled multicore
    engine) and launched under a {!Runtime.Watchdog} deadline of 60 s.

    The cache is keyed by a kernel's [(name, shape)], its identity per
    {!Kernels}.  An entry is built on the first launch of its key and
    never changes afterwards. *)

type t

type stats =
  { mutable compiles : int
  ; mutable hits : int
  ; mutable misses : int
  ; mutable degraded : int
        (** kernels that did not compile at the Primary rung *)
  ; mutable interp_fallbacks : int
        (** entries the compiled engine rejected, running on the serial
            interpreter rung *)
  ; mutable launches : int
  }

type kernel_info =
  { kname : string
  ; kshape : int list
  ; krung : string
        (** ["primary"], ["degraded:STAGE"] or ["fallback"], with
            ["+interp"] appended when the engine rejected the entry *)
  ; klaunches : int
  ; ksecs : float (** cumulative wall-clock inside launches *)
  }

(** [create ()] makes an empty manager.  [domains] (default 4) is the
    team size of every launch. *)
val create : ?domains:int -> unit -> t

(** Launch a kernel with the given arguments (buffer layout per the
    {!Kernels} constructor), compiling and caching it on first use.
    @raise Runtime.Exec.Timeout when the watchdog deadline expires.
    @raise Interp.Mem.Runtime_error on kernel failure. *)
val launch : t -> Kernels.t -> Interp.Mem.rv list -> unit

val stats : t -> stats

(** Per-kernel cache entries (name order): rung, launches, seconds. *)
val kernels : t -> kernel_info list

val stats_to_string : stats -> string
