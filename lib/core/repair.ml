(* Analysis-guided kernel auto-repair.

   The search space is the GPURepair one restricted to barriers: insert
   a [polygeist.barrier] (CUDA __syncthreads) at a legal separation
   point of a racing pair, or delete / hoist a divergent barrier out of
   its thread-dependent construct.  Candidates come straight from the
   sanitizer's structured findings:

     - each definite race ({!Race.findings}) contributes one insertion
       per {!Mhp.separation_points} point, already ranked best-first
       (the point just before the later access of the pair, i.e. the
       closest interval split);
     - each divergent barrier ({!Divergence.findings}) contributes a
       hoist past its OUTERMOST thread-dependent ancestor (re-insert
       after it, then the before-it variant) and a plain deletion.

   The search is greedy with backtracking: candidates are tried in rank
   order under {!Passmgr.with_rollback}; one is kept only when it
   strictly decreases the sanitizer error count (so progress is
   monotone and the edit sequence minimal for the greedy order), then
   the search recurses on the residual errors.  A branch that dead-ends
   rolls back — [with_rollback] restores the pre-candidate tree — and
   the next candidate is tried.  Rollback transplants fresh clones, so
   the candidate list is RE-PROPOSED from the live tree before every
   speculative application and candidates are addressed by rank index,
   never by retained op references.

   A sanitizer-clean tree is only accepted once the caller's [validate]
   hook (the differential oracle, in the driver) passes; any failure
   restores the original module bit-for-bit. *)

open Ir
open Analysis

type edit =
  { e_action : [ `Insert | `Delete ]
  ; e_loc : Srcloc.t option
  ; e_text : string
  }

let edit_to_string ~file (e : edit) =
  Printf.sprintf "%s: %s" (Diag.loc_to_string ~file e.e_loc) e.e_text

type status =
  | Clean
  | Repaired of edit list
  | Failed of string

type stats =
  { candidates_tried : int
  ; rechecks : int
  }

type outcome =
  { status : status
  ; stats : stats
  }

(* --- candidate edits over the live tree --- *)

type action =
  | Ins of Op.region * int (* insert a barrier at body index *)
  | Del of Op.region * Op.op (* delete this barrier from its region *)

type candidate =
  { c_actions : action list (* applied in order *)
  ; c_edits : edit list (* matching patch records *)
  }

let insert_at (r : Op.region) (i : int) (b : Op.op) : unit =
  let rec go k l =
    if k <= 0 then b :: l
    else
      match l with
      | [] -> [ b ]
      | x :: tl -> x :: go (k - 1) tl
  in
  r.Op.body <- go i r.Op.body

let delete_in (r : Op.region) (o : Op.op) : unit =
  r.Op.body <- List.filter (fun x -> x.Op.oid <> o.Op.oid) r.Op.body

let apply (c : candidate) : unit =
  List.iter
    (function
      | Ins (r, i) -> insert_at r i (Op.mk Op.Barrier)
      | Del (r, o) -> delete_in r o)
    c.c_actions

(* The region of [p]'s regions holding [o], and [o]'s index in it. *)
let container (info : Info.t) (o : Op.op) : (Op.region * int) option =
  match Info.parent info o with
  | None -> None
  | Some p ->
    let found = ref None in
    Array.iter
      (fun (r : Op.region) ->
        if !found = None then
          List.iteri
            (fun i (x : Op.op) ->
              if x.Op.oid = o.Op.oid && !found = None then found := Some (r, i))
            r.Op.body)
      p.Op.regions;
    !found

(* Source location an insertion at (r, i) lands before, for the patch
   line; falls back to [fb] past the end of the body. *)
let loc_at (r : Op.region) (i : int) (fb : Srcloc.t option) : Srcloc.t option =
  match List.nth_opt r.Op.body i with
  | Some o -> if o.Op.loc <> None then o.Op.loc else fb
  | None -> fb

(* Identity of a candidate's effect on the tree, for deduplication:
   several findings routinely propose the same insertion point.
   Regions carry no ids, so number them by physical equality within
   one [propose] pass. *)
let action_keys () =
  let regs = ref [] in
  let rid (r : Op.region) =
    match List.find_opt (fun (r', _) -> r' == r) !regs with
    | Some (_, i) -> i
    | None ->
      let i = List.length !regs in
      regs := (r, i) :: !regs;
      i
  in
  fun (c : candidate) ->
    List.map
      (function
        | Ins (r, i) -> `I (rid r, i)
        | Del (_, o) -> `D o.Op.oid)
      c.c_actions

(* One ranked candidate group per divergent barrier, hoisting past its
   OUTERMOST thread-dependent ancestor — re-insert after it (rank 0),
   before it (rank 1), or plain deletion (rank 2).  The findings list
   ancestors innermost-first, so the last anchor per barrier wins. *)
let div_candidates (info : Info.t) (mhp : Mhp.t) : (int * candidate) list =
  let anchor_of : (int, Op.op) Hashtbl.t = Hashtbl.create 8 in
  let barriers = ref [] in
  List.iter
    (fun (f : Divergence.finding) ->
      let k = f.Divergence.dv_barrier.Op.oid in
      if not (Hashtbl.mem anchor_of k) then
        barriers := f.Divergence.dv_barrier :: !barriers;
      Hashtbl.replace anchor_of k f.Divergence.dv_anchor)
    (Divergence.findings mhp);
  List.concat_map
    (fun (b : Op.op) ->
      let anchor = Hashtbl.find anchor_of b.Op.oid in
      match container info b, container info anchor with
      | Some (rb, _), Some (ra, ia) ->
        let del = Del (rb, b) in
        let del_edit =
          { e_action = `Delete
          ; e_loc = b.Op.loc
          ; e_text = "delete this __syncthreads() (not all threads reach it)"
          }
        in
        let hoist i =
          { c_actions = [ del; Ins (ra, i) ]
          ; c_edits =
              [ del_edit
              ; { e_action = `Insert
                ; e_loc = loc_at ra i anchor.Op.loc
                ; e_text =
                    "insert __syncthreads() before this point (hoisted out \
                     of thread-dependent control flow)"
                }
              ]
          }
        in
        (* deleting [b] first never shifts [ia]: the barrier lives
           strictly inside the anchor's subtree, not in [ra] *)
        [ (0, hoist (ia + 1))
        ; (1, hoist ia)
        ; (2, { c_actions = [ del ]; c_edits = [ del_edit ] })
        ]
      | _ -> [])
    (List.rev !barriers)

(* All candidates of the module, best-first, from the live tree.
   Candidates are INTERLEAVED across findings by rank — every
   finding's rank-0 point precedes any finding's rank-1 point — so one
   pair with a long tail of mediocre points (a wrap-around race can
   have dozens) cannot starve the others within the search budget.
   Duplicates (the same edit proposed by several findings) are kept
   once, at their best rank.  Deterministic: driven by
   program-ordered findings and ranked separation points, so
   re-proposing after a rollback (which clones the tree but preserves
   structure and locations) yields the same list. *)
let propose (m : Op.op) : candidate list =
  let info = Info.build m in
  let ranked =
    List.concat_map
      (fun par ->
        let ctx = Effects.make_ctx ~modul:m ~par info in
        let mhp = Mhp.analyze ctx par in
        let race_cands =
          List.concat_map
            (fun (f : Race.finding) ->
              match f.Race.f_a, f.Race.f_b with
              | Some a, Some b ->
                List.map
                  (fun (pt : Mhp.point) ->
                    ( pt.Mhp.pt_rank
                    , { c_actions =
                          [ Ins (pt.Mhp.pt_region, pt.Mhp.pt_index) ]
                      ; c_edits =
                          [ { e_action = `Insert
                            ; e_loc = pt.Mhp.pt_loc
                            ; e_text =
                                "insert __syncthreads() before this point"
                            }
                          ]
                      } ))
                  (Mhp.separation_points mhp ~shifted:f.Race.f_shifted a b)
              | _ -> [])
            (Race.findings ~report_possible:true mhp)
        in
        let div_cands = div_candidates info mhp in
        race_cands @ div_cands)
      (Kernelcheck.block_pars m)
  in
  let sorted =
    List.stable_sort (fun (ra, _) (rb, _) -> compare ra rb) ranked
  in
  let key_of = action_keys () in
  let seen = Hashtbl.create 32 in
  List.filter_map
    (fun (_, c) ->
      let k = key_of c in
      if Hashtbl.mem seen k then None
      else begin
        Hashtbl.add seen k ();
        Some c
      end)
    sorted


(* --- the greedy backtracking search --- *)

(* The repair objective is CONSERVATIVE, GPUVerify-style: a kernel is
   only "repaired" when the sanitizer — with possible races surfaced —
   has nothing left to say about races or divergence.  A possible race
   (e.g. a rotated [s[(t+k) % T]] read, beyond the affine equality
   argument) is exactly the kind a missing barrier produces, so
   suppressing it would declare victory while the kernel still races.
   Non-race warnings stay out of the objective: barriers cannot fix
   them, and counting them would make progress impossible. *)
let target_diag (d : Diag.t) : bool =
  Diag.is_error d || d.Diag.check = "race"

let run ?(max_edits = 4) ?(max_candidates = 64)
    ?(validate = fun _ -> Ok ()) (m : Op.op) : outcome =
  let rechecks = ref 0 in
  let errors () =
    incr rechecks;
    List.filter target_diag (Kernelcheck.check_module ~report_possible:true m)
  in
  let tried = ref 0 in
  let stats () = { candidates_tried = !tried; rechecks = !rechecks } in
  match List.length (errors ()) with
  | 0 -> { status = Clean; stats = stats () }
  | n0 ->
    let initial = Clone.snapshot m in
    (* accepted candidates' edit groups, innermost (latest) first *)
    let groups : edit list list ref = ref [] in
    let rec search depth nerrs =
      if nerrs = 0 then true
      else if depth >= max_edits then false
      else begin
        let ncands = List.length (propose m) in
        let rec try_k k =
          if k >= ncands || !tried >= max_candidates then false
          else begin
            incr tried;
            let kept =
              Passmgr.with_rollback m (fun () ->
                (* re-propose from the live tree: any earlier rollback
                   invalidated retained region references *)
                match List.nth_opt (propose m) k with
                | None -> false
                | Some c ->
                  apply c;
                  let nerrs' = List.length (errors ()) in
                  if nerrs' >= nerrs then false
                  else begin
                    groups := c.c_edits :: !groups;
                    if search (depth + 1) nerrs' then true
                    else begin
                      (* dead end: with_rollback restores the tree;
                         drop the edit record too *)
                      groups := List.tl !groups;
                      false
                    end
                  end)
            in
            kept || try_k (k + 1)
          end
        in
        try_k 0
      end
    in
    if not (search 0 n0) then begin
      Clone.restore ~into:m initial;
      { status =
          Failed
            (Printf.sprintf
               "no barrier edit sequence fixes the %d sanitizer error%s \
                within budget (%d candidates tried)"
               n0
               (if n0 = 1 then "" else "s")
               !tried)
      ; stats = stats ()
      }
    end
    else begin
      match validate m with
      | Ok () ->
        { status = Repaired (List.concat (List.rev !groups))
        ; stats = stats ()
        }
      | Error why ->
        Clone.restore ~into:m initial;
        { status =
            Failed
              (Printf.sprintf
                 "sanitizer-clean repair rejected by validation: %s" why)
        ; stats = stats ()
        }
    end
