(** Parallel loop splitting (Sec. III-B1): fission of a block-parallel
    loop at a top-level barrier, with SSA values crossing the fission
    either cached in per-thread slabs or recomputed — a min vertex cut
    over the SSA graph picks the cheapest mix (Fig. 6).  Thread-local
    allocas that must survive the fission are first expanded into
    per-thread slabs allocated outside the loop. *)

exception Unsupported of string

(** Index of the first top-level barrier in a region body. *)
val top_barrier_index : Ir.Op.op list -> int option

type split_stats =
  { mutable cached_values : int
  ; mutable recomputed_ops : int
  }

(** Cumulative statistics since the last {!reset_stats} (the Fig.-6
    test and the mincut ablation read these). *)
val stats : split_stats

val reset_stats : unit -> unit

(** Split at the first top-level barrier; [Ok None] when there is none.
    With [use_mincut:false] every live value is cached (the MCUDA
    behaviour / ablation baseline).  [Unsupported] is reified as
    [Error] — the structured boundary the fault-tolerant pass manager
    consumes. *)
val split_result :
  use_mincut:bool -> Ir.Op.op -> (Ir.Op.op list option, string) result
