(* Facade of the static kernel sanitizer.

   Runs the race, barrier-divergence and shared-init checks over every
   block-parallel region of a module and returns the merged, sorted
   diagnostic list.

   The checks read index expressions syntactically, so they are only as
   precise as the IR is clean: callers should run the cleanup prefix
   [Core.Cpuify.cleanup] (canonicalize, cse, mem2reg, canonicalize)
   BEFORE checking — the analysis layer cannot invoke those passes
   itself (core depends on analysis, not the other way round). *)

open Ir

(* Every block-parallel op of the module, in program order.  These are
   the regions [__syncthreads] synchronizes, hence the scope of all
   three checks. *)
let block_pars (m : Op.op) : Op.op list =
  let acc = ref [] in
  Op.iter
    (fun o ->
      match o.Op.kind with
      | Op.Parallel Op.Block -> acc := o :: !acc
      | _ -> ())
    m;
  List.rev !acc

(* The interval analysis is shared by the race and divergence checks:
   build it once per parallel region. *)
let check_par ?report_possible (ctx : Effects.ctx) (par : Op.op) :
  Diag.t list =
  let mhp = Mhp.analyze ctx par in
  Race.check_mhp ?report_possible mhp
  @ Divergence.check mhp
  @ Shared_init.check ctx par

(** All diagnostics for the module, deduplicated and deterministically
    sorted by source location then check name ({!Diag.normalize}).
    [report_possible] also surfaces conservative maybe-races as
    warnings (default: only definite races, divergence and
    shared-init). *)
let check_module ?report_possible (m : Op.op) : Diag.t list =
  let info = Info.build m in
  Diag.normalize
    (List.concat_map
       (fun par ->
         let ctx = Effects.make_ctx ~modul:m ~par info in
         check_par ?report_possible ctx par)
       (block_pars m))

(** Race check only, for re-running after transformation passes
    ([-check-after-each-pass]): divergence/shared-init diagnostics lose
    meaning mid-lowering (passes legitimately move barriers), but a
    definite race must never appear in a race-free program. *)
let check_module_races (m : Op.op) : Diag.t list =
  let info = Info.build m in
  Diag.normalize
    (List.concat_map
       (fun par ->
         let ctx = Effects.make_ctx ~modul:m ~par info in
         Race.check ctx par)
       (block_pars m))
