(** Automatic test-case reducer (llvm-reduce style): greedy source-level
    shrinking of a failing program, keeping each edit iff the program
    still fails with the same oracle stage and class.

    Edit families: statement deletion, region deletion (a branch or a
    loop body replaces its construct), integer/float constant shrinking,
    and collapsing compound expressions to an operand.  Candidates that
    no longer compile fail with a different class and are rejected
    automatically. *)

(** [run src failure] shrinks [src] while {!Oracle.run} keeps reporting
    a failure with the same stage and class as [failure]; returns the
    smallest source found (or [src] unchanged if it cannot reproduce).
    It invokes the oracle at most 1500 times ([max_checks]). *)
val run : ?timeout_ms:int -> string -> Oracle.failure -> string

(** Number of IR ops inside the compiled kernel's block-level parallel
    region(s) — the code the barrier-lowering passes transform, i.e. the
    witness size with the fixed launch scaffolding excluded.  [max_int]
    if the source no longer compiles. *)
val ir_ops : string -> int
