(** Deterministic fault injection for the pass pipeline.

    A fault plan is an ordered list of one-shot (stage, kind) entries:
    an entry fires the first time a stage with that name is attempted
    and is then spent.  Two `cpuify:raise` entries therefore take down
    both split rungs of the degradation ladder and force the
    whole-pipeline fallback. *)

type kind =
  | Raise (** the stage raises before doing any work *)
  | Corrupt (** the stage completes, then the IR is made unverifiable *)
  | Exhaust (** the stage's fuel budget is exhausted immediately *)
  | Hang
    (** the target spins forever — meaningful for the ["runtime"]
        stage, where one team rank blocks until the watchdog cancels
        the launch; pass-pipeline stages treat it like [Raise] *)

type entry = string * kind
type plan = entry list

(** Raised by the pass manager when a [Raise] fault fires. *)
exception Injected of string

val entry_to_string : entry -> string

(** Parse ["STAGE:KIND"] (the --inject-fault syntax). *)
val entry_of_string : string -> (entry, string) result

(** Comma-separated entries, the crash-bundle wire format. *)
val plan_to_string : plan -> string

val plan_of_string : string -> (plan, string) result

(** 1-3 faults over the given stage names, deterministic in [seed]. *)
val random_plan : seed:int -> string list -> plan

(** Mutable one-shot view of a plan, consumed entry by entry. *)
type pending

val pending_of_plan : plan -> pending

(** Take (and spend) the first pending entry for [stage], if any. *)
val take : pending -> string -> kind option
