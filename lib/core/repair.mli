(** Analysis-guided kernel auto-repair (GPURepair-style).

    Given a module whose kernels the static sanitizer
    ({!Analysis.Kernelcheck}) flags, search for a minimal sequence of
    barrier edits — insertions at the {!Analysis.Mhp.separation_points}
    of each racing pair, and deletions/hoists of divergent barriers —
    that makes the sanitizer clean.  Candidates are ranked (race
    findings first, closest separating point first) and tried greedily
    with backtracking: each is applied under
    {!Passmgr.with_rollback} and kept only when it strictly decreases
    the error count; a candidate that leads into a dead end is rolled
    back and the next one tried.  A repair is only reported once the
    caller-supplied [validate] hook — in the driver, the differential
    oracle of [lib/fuzz] — accepts the edited module; otherwise the
    module is restored to its original state. *)

type edit =
  { e_action : [ `Insert | `Delete ]
  ; e_loc : Ir.Srcloc.t option
    (** anchor: the statement the barrier is inserted before (or the
        enclosing construct for end-of-block points), or the deleted
        barrier itself *)
  ; e_text : string (** human-readable patch line, location-free *)
  }

(** [file:line:col: <text>] — the driver's patch rendering. *)
val edit_to_string : file:string -> edit -> string

(** The repair objective: diagnostics the search drives to zero —
    errors of any check plus race findings of any strength (the search
    runs the sanitizer with possible races surfaced; a conservative
    may-race is exactly what a missing barrier produces).  Exposed so
    campaigns count "dirty" kernels the same way the search does. *)
val target_diag : Analysis.Diag.t -> bool

type status =
  | Clean (** the sanitizer had no errors; module untouched *)
  | Repaired of edit list (** edits applied, in application order *)
  | Failed of string (** module restored to its original state *)

type stats =
  { candidates_tried : int (** speculative applications attempted *)
  ; rechecks : int (** sanitizer re-runs consumed by the search *)
  }

type outcome =
  { status : status
  ; stats : stats
  }

(** Run the search on (and, on success, mutate) the module.  It accepts
    at most 4 edits in depth ([max_edits]) and makes at most 64
    speculative applications in all ([max_candidates]); [validate] is
    consulted once, on the first sanitizer-clean variant reached
    (default: accept). *)
val run :
  ?validate:(Ir.Op.op -> (unit, string) result) ->
  Ir.Op.op ->
  outcome
