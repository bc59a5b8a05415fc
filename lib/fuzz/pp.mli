(** Mini-CUDA AST pretty-printer: inverse of [Cudafe.Parser], used by
    the test-case reducer to re-source an edited AST.  Every compound
    expression is parenthesized, so a reparse rebuilds the same tree
    shape regardless of precedence. *)

(** Print a whole program back to parseable source.  Not reentrant (one
    shared buffer) — fine for the single-threaded reducer. *)
val program : Cudafe.Ast.program -> string
