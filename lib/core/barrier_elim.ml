(* Barrier elimination and motion (Sec. IV-A).

   Given a barrier B, let M_before be the union of memory effects before B
   up to the previous barrier or the start of the parallel region, and
   M_after the union after B up to the next barrier or the region end.  B
   is redundant when (M_before ∩ M_after) \ RAR contains no cross-thread
   conflict — every remaining ordering requirement is within a single
   thread, where program order already provides it.

   Barrier motion reuses the same query: a barrier may move to a new
   position when a barrier at the new position would make the original one
   redundant.  We use motion in its hoisting form: a barrier that is the
   first (or last) op of a control-flow construct moves just outside it,
   which often unlocks parallel loop splitting without interchange. *)

open Ir
open Analysis

(* Is this barrier redundant per the interval-effect criterion? *)
let redundant (ctx : Effects.ctx) ~(par : Op.op) (barrier : Op.op) : bool =
  let before, after = Effects.barrier_intervals ctx ~par barrier in
  not (Effects.conflicts_cross ctx before after)

let run (m : Op.op) : int =
  let eliminated = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let info = Info.build m in
    (* Collect all barriers with their parallel context. *)
    let barriers = ref [] in
    Op.iter
      (fun (o : Op.op) ->
        if o.Op.kind = Op.Barrier then begin
          match Info.nearest_block_par info o with
          | Some par -> barriers := (o, par) :: !barriers
          | None -> ()
        end)
      m;
    (* Decide redundancy on the unmodified tree, then delete. *)
    let doomed =
      List.filter_map
        (fun (b, par) ->
          let ctx = Effects.make_ctx ~modul:m ~par info in
          if redundant ctx ~par b then Some b.Op.oid else None)
        !barriers
    in
    (* Deleting one barrier extends its neighbours' intervals, which can
       only *grow* their effect sets; removing several independently-
       redundant barriers at once could be unsound (each proof assumed the
       other barrier still cuts the interval).  Delete only the first and
       re-analyze. *)
    match doomed with
    | [] -> ()
    | oid :: _ ->
      let rec clean (op : Op.op) : Op.op list =
        Array.iter
          (fun (r : Op.region) -> r.body <- List.concat_map clean r.body)
          op.Op.regions;
        if op.Op.oid = oid then [] else [ op ]
      in
      (match clean m with [ _ ] -> () | _ -> ());
      incr eliminated;
      changed := true
  done;
  !eliminated

(* --- barrier motion (hoisting out of an if/for when at the edge) --- *)

(* A barrier that is the first op of an [if] body can move before the if
   when doing so preserves semantics: the moved barrier at the new
   position must subsume the old one.  We check it with the redundancy
   query on a speculative copy: insert a barrier before the construct and
   test whether the original becomes redundant. *)
let hoist_edge_barriers (m : Op.op) : int =
  let moved = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let info = Info.build m in
    (* Hoist from one region body: find an [if] whose then-branch starts
       with a barrier (else empty); speculatively place a barrier before
       the if; commit if the original becomes redundant. *)
    let try_hoist (r : Op.region) : bool =
      let rec go prefix = function
        | [] -> false
        | (ifop : Op.op) :: rest
          when ifop.Op.kind = Op.If
               && (match ifop.Op.regions.(0).body with
                   | { Op.kind = Op.Barrier; _ } :: _ -> true
                   | _ -> false)
               && ifop.Op.regions.(1).body = [] -> begin
          match Info.nearest_block_par info ifop with
          | None -> go (ifop :: prefix) rest
          | Some par ->
            let nb = Builder.barrier () in
            let saved = r.body in
            r.body <- List.rev_append prefix (nb :: ifop :: rest);
            let ctx = Effects.make_ctx ~modul:m ~par (Info.build m) in
            let original = List.hd ifop.Op.regions.(0).body in
            if redundant ctx ~par original then begin
              ifop.Op.regions.(0).body <- List.tl ifop.Op.regions.(0).body;
              true
            end
            else begin
              r.body <- saved;
              go (ifop :: prefix) rest
            end
        end
        | op :: rest -> go (op :: prefix) rest
      in
      go [] r.body
    in
    let rec visit (op : Op.op) =
      Array.iter
        (fun (r : Op.region) ->
          if try_hoist r then begin
            incr moved;
            changed := true
          end;
          List.iter visit r.body)
        op.Op.regions
    in
    visit m
  done;
  !moved
