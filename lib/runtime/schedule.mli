(** Worksharing schedules for [omp.wsloop]: how a team partitions an
    iteration space of [n] (linearized) iterations.

    - [Static]: balanced contiguous chunks computed from the rank alone
      — no shared state, deterministic assignment, and the exact
      partition the serial interpreter uses (chunk sizes differ by at
      most 1 across the team).
    - [Dynamic]: threads repeatedly grab fixed-size chunks from a shared
      atomic counter — work stealing for skewed iteration loads.
    - [Guided]: like dynamic, but the chunk size starts at
      [remaining / (2*size)] and decays, trading fewer atomic
      operations against tail balance. *)

type policy =
  | Static
  | Dynamic
  | Guided

(** The [--schedule] names of the policies. *)
val policies : (string * policy) list

val to_string : policy -> string

(** [static_chunk ~rank ~size ~n] is the contiguous [lo, hi) range of
    rank [rank] in a team of [size] over [n] iterations.  Delegates to
    {!Interp.Eval.static_chunk}, the single source of truth for the
    static partition, so runtime and interpreter stay bit-compatible. *)
val static_chunk : rank:int -> size:int -> n:int -> int * int

(** Shared grab state for one dynamic/guided worksharing region. *)
type shared

val make_shared : unit -> shared

(** [next ?chunk shared policy ~size ~n] grabs the next [lo, hi) chunk,
    or [None] when the space is exhausted.  [chunk] overrides the batch
    size of each atomic grab: for [Dynamic] it is the fixed chunk size
    (default [max 8 (n / (16*size))]); for [Guided] it is the minimum
    chunk the decaying schedule will hand out (default 1).  [Static] is
    not a grabbing policy and must not be passed here. *)
val next :
  ?chunk:int -> shared -> policy -> size:int -> n:int -> (int * int) option
