(* May-happen-in-parallel analysis: barrier-interval dataflow over one
   block-parallel region.

   Interval 0 opens at the region entry; every barrier closes the
   intervals reaching it and opens a fresh one (numbered in first-visit
   program order, so the numbering is deterministic and readable in
   diagnostics).  The dataflow state at an op is a pair of id sets:
   [u] — intervals that can be live at the op with no loop back-edge
   crossed since they opened (lock-step serial-iv equality still
   holds), and [s] — intervals still live but only through at least one
   back-edge (their loop-iv comparisons are void, matching
   {!Effects.shift_access}).  Loops run to a fixpoint over
   [in' = in ∪ shift(out)]; both sets only grow and ids are bounded by
   the barrier count, so convergence is immediate in practice.

   The same traversal collects the access-bearing leaves with their
   guard context (pinning [if (tid == e)] guards, thread-dependent
   non-pinning guards) — previously private to the race check — and
   per-interval shared access sets, which make barrier redundancy a
   per-barrier conflict query.

   Candidate racing pairs are NOT derived from interval co-membership
   alone: two ops can share an interval id through incompatible branch
   choices (e.g. [if (u) { A; barrier }] followed by [B] — A and B both
   carry interval 0, but every execution that runs A fences it from B).
   Membership is a may-property per op, not per path.  The pair source
   stays the barrier-free forward reachability of
   {!Effects.effects_after}, which follows real paths; the dataflow
   then annotates each pair with its interval ids and computes the
   separating insertion points the repair search tries. *)

open Ir

(* --- thread-dependence helpers (shared with the divergence check) --- *)

let while_cond_value (op : Op.op) : Value.t option =
  let found = ref None in
  List.iter
    (fun (o : Op.op) ->
      if o.Op.kind = Op.Condition then found := Some o.Op.operands.(0))
    op.Op.regions.(0).Op.body;
  !found

let thread_private (ctx : Effects.ctx) (par : Op.op) (v : Value.t) : bool =
  let rec chase (v : Value.t) =
    match Info.defining_op ctx.info v with
    | Some ({ Op.kind = Op.Alloc | Op.Alloca; _ } as o) -> Some o
    | Some { Op.kind = Op.Cast _; operands; _ } -> chase operands.(0)
    | _ -> None
  in
  match chase v with
  | Some o -> Info.is_ancestor ctx.info ~anc:par o
  | None -> false

(* Thread-dependence taint: can the value differ between two threads of
   one block (at the same point of the lock-step execution)?  Memoized
   per value.

   Anything defined outside the block-parallel region is launch-uniform.
   Inside, taint starts at the non-unit thread ivs and propagates
   through arithmetic and through memory when the frontend spilled a
   value to a stack slot: a load from a thread-private slot is tainted
   iff some store to the slot stores a tainted value or executes under
   tainted control (divergent threads then disagree on whether the store
   happened at all).  Loads from anything shared between threads are
   conservatively tainted. *)
let mk_taint (ctx : Effects.ctx) : Value.t -> bool =
  let non_unit = Value.Set.diff ctx.tids (Effects.unit_tids ctx) in
  let memo = Hashtbl.create 64 in
  (* Stores to (and escapes of) each memref inside the parallel region,
     for the private-slot rule. *)
  let slot_stores : (int, Op.op list ref) Hashtbl.t = Hashtbl.create 16 in
  let escaped : (int, unit) Hashtbl.t = Hashtbl.create 16 in
  (match ctx.par with
   | Some par ->
     Op.iter
       (fun (o : Op.op) ->
         match o.Op.kind with
         | Op.Store ->
           let b = o.Op.operands.(1) in
           let r =
             match Hashtbl.find_opt slot_stores b.Value.id with
             | Some r -> r
             | None ->
               let r = ref [] in
               Hashtbl.replace slot_stores b.Value.id r;
               r
           in
           r := o :: !r
         | Op.Copy -> Hashtbl.replace escaped o.Op.operands.(1).Value.id ()
         | Op.Call _ ->
           Array.iter
             (fun (v : Value.t) -> Hashtbl.replace escaped v.Value.id ())
             o.Op.operands
         | _ -> ())
       par
   | None -> ());
  let rec go (v : Value.t) : bool =
    match Hashtbl.find_opt memo v.Value.id with
    | Some b -> b
    | None ->
      (* cycle guard: assume uniform while computing *)
      Hashtbl.replace memo v.Value.id false;
      let r =
        if Value.Set.mem v non_unit then true
        else if Value.Set.mem v ctx.tids then false (* unit-extent tid *)
        else begin
          match Info.def ctx.info v with
          | Info.Def_external -> false (* defined above the kernel *)
          | Info.Def_arg (op, _) when outside op -> false
          | Info.Def_op op when outside op -> false
          | Info.Def_arg (op, i) -> begin
            match op.Op.kind with
            | Op.Func _ -> false (* parameters are launch-uniform *)
            | Op.Parallel Op.Grid -> false (* same block for all threads *)
            | Op.Parallel _ | Op.OmpWsloop | Op.OmpParallel -> true
            | Op.For when i = 0 ->
              (* uniform bounds => all threads see the same iv sequence
                 (same-iteration/lock-step comparison) *)
              go (Op.for_lo op) || go (Op.for_hi op) || go (Op.for_step op)
            | Op.For -> carried_tainted op (i - 1)
            | _ -> true
          end
          | Info.Def_op op -> begin
            match op.Op.kind with
            | Op.Constant _ -> false
            | Op.For -> carried_tainted op (result_index op v)
            | Op.If ->
              (* threads agree on the result when they agree on the
                 branch and on what it yields *)
              let k = result_index op v in
              go op.Op.operands.(0)
              || go (Op.yielded op.Op.regions.(0)).(k)
              || go (Op.yielded op.Op.regions.(1)).(k)
            | Op.Alloc | Op.Alloca -> false (* the memref value itself *)
            | Op.Load -> load_tainted op
            | Op.Call _ -> true
            | Op.Dim _ -> go op.Op.operands.(0)
            | Op.Binop _ | Op.Cmp _ | Op.Select | Op.Cast _ | Op.Math _ ->
              Array.exists go op.Op.operands
            | _ -> true
          end
        end
      in
      Hashtbl.replace memo v.Value.id r;
      r
  (* iter_arg / result [k] of a for: its init, what each iteration
     yields, and how many iterations ran *)
  and carried_tainted (op : Op.op) (k : int) : bool =
    go (Op.for_lo op) || go (Op.for_hi op) || go (Op.for_step op)
    || go (Op.for_inits op).(k)
    || go (Op.yielded op.Op.regions.(0)).(k)
  and result_index (op : Op.op) (v : Value.t) : int =
    let rec find k =
      if Value.equal op.Op.results.(k) v then k else find (k + 1)
    in
    find 0
  and outside (op : Op.op) : bool =
    match ctx.par with
    | Some par -> not (Info.is_ancestor ctx.info ~anc:par op)
    | None -> false
  and load_tainted (load : Op.op) : bool =
    match ctx.par with
    | None -> true
    | Some par ->
      let b = load.Op.operands.(0) in
      if not (thread_private ctx par b) || Hashtbl.mem escaped b.Value.id
      then true (* other threads may have written the loaded value *)
      else begin
        let stores =
          match Hashtbl.find_opt slot_stores b.Value.id with
          | Some r -> !r
          | None -> []
        in
        List.exists
          (fun (s : Op.op) -> go s.Op.operands.(0) || ctrl_tainted par s)
          stores
      end
  and ctrl_tainted (par : Op.op) (op : Op.op) : bool =
    List.exists
      (fun (anc : Op.op) ->
        match anc.Op.kind with
        | Op.If -> go anc.Op.operands.(0)
        | Op.For ->
          go (Op.for_lo anc) || go (Op.for_hi anc) || go (Op.for_step anc)
        | Op.While -> begin
          match while_cond_value anc with
          | Some c -> go c
          | None -> true
        end
        | _ -> false)
      (Info.ancestors_up_to ctx.info ~stop:par op)
  in
  go

(* --- interval dataflow --- *)

module IS = Set.Make (Int)

type state =
  { u : IS.t (* intervals live, no back-edge crossed since opening *)
  ; s : IS.t (* live only through at least one back-edge *)
  }

let empty_state = { u = IS.empty; s = IS.empty }
let union_state a b = { u = IS.union a.u b.u; s = IS.union a.s b.s }
let equal_state a b = IS.equal a.u b.u && IS.equal a.s b.s

(* Crossing a loop back-edge: every live interval loses its lock-step
   iv equalities. *)
let shift_state st = { u = IS.empty; s = IS.union st.u st.s }

type leaf =
  { l_op : Op.op
  ; l_accs : Effects.access list
  ; l_pinned : Affine.expr Value.Map.t
  ; l_guarded : bool
  }

type t =
  { t_ctx : Effects.ctx
  ; t_par : Op.op
  ; t_taint : Value.t -> bool
  ; mutable t_n : int (* number of intervals *)
  ; t_openers : (int, Op.op) Hashtbl.t (* id -> opening barrier *)
  ; t_opens : (int, int) Hashtbl.t (* barrier oid -> opened id *)
  ; t_closes : (int, state) Hashtbl.t (* barrier oid -> in-state *)
  ; t_at : (int, state) Hashtbl.t (* op oid -> in-state *)
  ; mutable t_leaves : leaf list
  ; t_iaccs : (int, Effects.access list ref) Hashtbl.t
  }

let ctx t = t.t_ctx
let par t = t.t_par
let taint t = t.t_taint
let interval_count t = t.t_n
let opener t i = Hashtbl.find_opt t.t_openers i
let barrier_opens t (b : Op.op) = Hashtbl.find_opt t.t_opens b.Op.oid

let sets_of_state st = (IS.elements st.u, IS.elements st.s)

let barrier_closes t (b : Op.op) =
  Option.map sets_of_state (Hashtbl.find_opt t.t_closes b.Op.oid)

let intervals_at t (o : Op.op) =
  Option.map sets_of_state (Hashtbl.find_opt t.t_at o.Op.oid)

let home t (o : Op.op) =
  match Hashtbl.find_opt t.t_at o.Op.oid with
  | Some st when not (IS.is_empty st.u) -> IS.min_elt st.u
  | _ -> 0

(* The fixpoint cap is a safety net only: states grow monotonically in
   a lattice of height <= 2 * interval count, so real kernels converge
   in two or three passes. *)
let max_fix = 100

let dataflow (t : t) : unit =
  let record tbl oid st =
    let cur =
      Option.value ~default:empty_state (Hashtbl.find_opt tbl oid)
    in
    Hashtbl.replace tbl oid (union_state cur st)
  in
  let id_of (b : Op.op) : int =
    match Hashtbl.find_opt t.t_opens b.Op.oid with
    | Some i -> i
    | None ->
      let i = t.t_n in
      t.t_n <- t.t_n + 1;
      Hashtbl.replace t.t_opens b.Op.oid i;
      Hashtbl.replace t.t_openers i b;
      i
  in
  let rec walk_region st (r : Op.region) : state =
    List.fold_left walk_op st r.Op.body
  and walk_op st (o : Op.op) : state =
    record t.t_at o.Op.oid st;
    match o.Op.kind with
    | Op.Barrier ->
      record t.t_closes o.Op.oid st;
      { u = IS.singleton (id_of o); s = IS.empty }
    | Op.If ->
      union_state
        (walk_region st o.Op.regions.(0))
        (walk_region st o.Op.regions.(1))
    | Op.For | Op.Parallel _ | Op.OmpWsloop | Op.OmpParallel ->
      (* one body region; iterations chain through the back-edge *)
      let body = o.Op.regions.(Array.length o.Op.regions - 1) in
      let rec fix st_in n =
        let st_out = walk_region st_in body in
        let st_in' = union_state st_in (shift_state st_out) in
        if equal_state st_in' st_in || n >= max_fix then st_out
        else fix st_in' (n + 1)
      in
      let st_out = fix st 0 in
      if Info.trip_nonzero t.t_ctx.Effects.info o then st_out
      else union_state st st_out
    | Op.While ->
      (* cond runs first and again after each body iteration; the loop
         exits from the cond region *)
      let cond = o.Op.regions.(0) and body = o.Op.regions.(1) in
      let rec fix st_c n =
        let st_c_out = walk_region st_c cond in
        let st_b_out = walk_region st_c_out body in
        let st_c' = union_state st_c (shift_state st_b_out) in
        if equal_state st_c' st_c || n >= max_fix then st_c_out
        else fix st_c' (n + 1)
      in
      fix st 0
    | _ ->
      (* region-less ops pass the state through; any other region op
         (none occur inside kernels today) is treated as optional
         straight-line code *)
      Array.fold_left
        (fun acc r -> union_state acc (walk_region st r))
        st o.Op.regions
  in
  ignore (walk_region { u = IS.singleton 0; s = IS.empty } t.t_par.Op.regions.(0))

(* --- leaves (with guard context) and per-interval access sets --- *)

let collect_leaves (t : t) : unit =
  let ctx = t.t_ctx in
  let shared_visible (a : Effects.access) =
    match a.Effects.base with
    | Some b -> not (thread_private ctx t.t_par b)
    | None -> true
  in
  let leaves = ref [] in
  let rec go_op ~pinned ~guarded (op : Op.op) =
    match op.Op.kind with
    | Op.Load | Op.Store | Op.Copy | Op.Dealloc | Op.Call _ ->
      let accs =
        List.filter shared_visible (Effects.collect_op ctx ~pinned op)
      in
      if accs <> [] then
        leaves :=
          { l_op = op; l_accs = accs; l_pinned = pinned; l_guarded = guarded }
          :: !leaves
    | Op.If ->
      let extra = Effects.pinned_by_cond ctx op.Op.operands.(0) in
      let cond_tainted = t.t_taint op.Op.operands.(0) in
      (* a pinning guard (tid == e) is fully accounted for by [pinned];
         any other thread-dependent guard forfeits definiteness *)
      let then_guarded =
        guarded || (cond_tainted && Value.Map.is_empty extra)
      in
      go_region ~pinned:(Effects.add_pins pinned extra) ~guarded:then_guarded
        op.Op.regions.(0);
      go_region ~pinned ~guarded:(guarded || cond_tainted) op.Op.regions.(1)
    | _ -> Array.iter (go_region ~pinned ~guarded) op.Op.regions
  and go_region ~pinned ~guarded (r : Op.region) =
    List.iter (go_op ~pinned ~guarded) r.body
  in
  go_region ~pinned:Value.Map.empty ~guarded:false t.t_par.Op.regions.(0);
  t.t_leaves <- List.rev !leaves;
  (* per-interval shared access sets: a leaf contributes as-is to every
     interval it can occupy lock-step, and iv-stripped to the intervals
     it only reaches through a back-edge *)
  List.iter
    (fun l ->
      match Hashtbl.find_opt t.t_at l.l_op.Op.oid with
      | None -> ()
      | Some st ->
        let add shifted i =
          let r =
            match Hashtbl.find_opt t.t_iaccs i with
            | Some r -> r
            | None ->
              let r = ref [] in
              Hashtbl.replace t.t_iaccs i r;
              r
          in
          let accs =
            if shifted then List.map Effects.shift_access l.l_accs
            else l.l_accs
          in
          r := !r @ accs
        in
        IS.iter (add false) st.u;
        IS.iter (add true) (IS.diff st.s st.u))
    t.t_leaves

let leaves t = t.t_leaves

let interval_accesses t i =
  match Hashtbl.find_opt t.t_iaccs i with Some r -> !r | None -> []

let analyze (ctx : Effects.ctx) (par : Op.op) : t =
  let t =
    { t_ctx = ctx
    ; t_par = par
    ; t_taint = mk_taint ctx
    ; t_n = 1 (* interval 0 = region entry *)
    ; t_openers = Hashtbl.create 8
    ; t_opens = Hashtbl.create 8
    ; t_closes = Hashtbl.create 8
    ; t_at = Hashtbl.create 64
    ; t_leaves = []
    ; t_iaccs = Hashtbl.create 8
    }
  in
  dataflow t;
  collect_leaves t;
  t

(* --- conflict candidates --- *)

type conflict =
  { cf_a : Effects.access
  ; cf_ga : bool
  ; cf_b : Effects.access
  ; cf_gb : bool
  ; cf_intervals : int * int
  ; cf_shifted : bool
  }

let conflicts (t : t) : conflict list =
  let ctx = t.t_ctx in
  let table = Hashtbl.create 64 in
  List.iter (fun l -> Hashtbl.replace table l.l_op.Op.oid l) t.t_leaves;
  let home_of (x : Effects.access) =
    match x.Effects.src with Some o -> home t o | None -> 0
  in
  let out = ref [] in
  List.iter
    (fun l ->
      let after = Effects.effects_after ctx ~par:t.t_par ~shifted:false l.l_op in
      (* the forward scan collects accesses with empty pin/guard
         context; recover it from the leaf table via the source op *)
      let resolve (b : Effects.access) : Effects.access * bool =
        match b.Effects.src with
        | Some o -> begin
          match Hashtbl.find_opt table o.Op.oid with
          | Some lb ->
            (* pins rely on the guard value being the same in both
               executions; a wrap-around copy crosses an iteration
               boundary, so drop them *)
            let pinned =
              if b.Effects.shifted then Value.Map.empty else lb.l_pinned
            in
            ({ b with Effects.pinned }, lb.l_guarded)
          | None -> (b, true)
        end
        | None -> (b, true)
      in
      let candidates =
        List.map (fun x -> (x, l.l_guarded)) l.l_accs
        @ List.map resolve
            (List.filter
               (fun (a : Effects.access) ->
                 match a.Effects.base with
                 | Some b -> not (thread_private ctx t.t_par b)
                 | None -> true)
               after)
      in
      List.iter
        (fun a ->
          List.iter
            (fun (b, gb) ->
              if Effects.cross_thread_conflict ctx a b then
                out :=
                  { cf_a = a
                  ; cf_ga = l.l_guarded
                  ; cf_b = b
                  ; cf_gb = gb
                  ; cf_intervals = (home_of a, home_of b)
                  ; cf_shifted = a.Effects.shifted || b.Effects.shifted
                  }
                  :: !out)
            candidates)
        l.l_accs)
    t.t_leaves;
  List.rev !out

(* --- barrier placement --- *)

type point =
  { pt_region : Op.region
  ; pt_index : int
  ; pt_loc : Srcloc.t option
  ; pt_rank : int
  }

(* Ancestor chain of [op] inside [par], outermost first, ending at the
   op itself; empty when the op is not inside the region. *)
let chain (t : t) (op : Op.op) : Op.op list =
  if not (Info.is_ancestor t.t_ctx.Effects.info ~anc:t.t_par op) then []
  else
    List.rev
      (op :: Info.ancestors_up_to t.t_ctx.Effects.info ~stop:t.t_par op)

(* Would a barrier inserted as a sibling of [child] (a direct child of
   the common region) be divergence-free?  Every control construct
   strictly above it, up to the parallel op, must be uniform. *)
let uniform_context (t : t) (child : Op.op) : bool =
  let tainted (anc : Op.op) =
    match anc.Op.kind with
    | Op.If -> t.t_taint anc.Op.operands.(0)
    | Op.For ->
      t.t_taint (Op.for_lo anc)
      || t.t_taint (Op.for_hi anc)
      || t.t_taint (Op.for_step anc)
    | Op.While -> begin
      match while_cond_value anc with
      | Some c -> t.t_taint c
      | None -> true
    end
    | _ -> false
  in
  not
    (List.exists tainted
       (Info.ancestors_up_to t.t_ctx.Effects.info ~stop:t.t_par child))

let index_in (r : Op.region) (child : Op.op) : int option =
  let rec go i = function
    | [] -> None
    | (o : Op.op) :: _ when o.Op.oid = child.Op.oid -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 r.Op.body

(* The region of [d] holding [child] (d = None means the parallel
   region itself). *)
let region_of (t : t) (d : Op.op option) (child : Op.op) : Op.region option =
  let holder = match d with Some d -> d | None -> t.t_par in
  Array.find_opt
    (fun (r : Op.region) ->
      List.exists (fun (o : Op.op) -> o.Op.oid = child.Op.oid) r.Op.body)
    holder.Op.regions

let mk_point (r : Op.region) idx rank holder_loc =
  let loc =
    match List.nth_opt r.Op.body idx with
    | Some (o : Op.op) -> o.Op.loc
    | None -> holder_loc
  in
  { pt_region = r; pt_index = idx; pt_loc = loc; pt_rank = rank }

let separation_points (t : t) ~(shifted : bool) (a : Op.op) (b : Op.op) :
  point list =
  match chain t a, chain t b with
  | [], _ | _, [] -> []
  | ca, cb ->
    (* peel the common prefix: [d] is the deepest common ancestor,
       [childa]/[childb] the subtrees below it holding each op *)
    let rec peel d ca cb =
      match ca, cb with
      | (x : Op.op) :: ca', (y : Op.op) :: cb' when x.Op.oid = y.Op.oid ->
        peel (Some x) ca' cb'
      | _ -> (d, ca, cb)
    in
    let d, resta, restb = peel None ca cb in
    begin
      match resta, restb with
      | [], _ | _, [] ->
        (* one op contains (or is) the other: the same statement raced
           by two threads — no barrier placement separates that *)
        []
      | childa :: _, childb :: _ -> begin
        match region_of t d childa, region_of t d childb with
        | Some ra, Some rb when ra == rb -> begin
          match index_in ra childa, index_in ra childb with
          | Some ia, Some ib when uniform_context t childa ->
            let holder_loc =
              match d with Some d -> d.Op.loc | None -> t.t_par.Op.loc
            in
            let n = List.length ra.Op.body in
            if not shifted then begin
              (* separate the two subtrees: any position strictly
                 between them; best = just before the later one *)
              let lo = min ia ib and hi = max ia ib in
              if lo = hi then []
              else
                List.init (hi - lo)
                  (fun k -> mk_point ra (hi - k) k holder_loc)
            end
            else begin
              (* cut the wrap-around path: positions after the first
                 subtree or before the second, body end first.  When
                 the pair does not sit under a common loop these still
                 separate straight-line wrap sources conservatively;
                 candidates are validated by re-checking anyway. *)
              let hi = max ia ib and lo = min ia ib in
              let upper = List.init (n - hi) (fun k -> n - k) in
              let lower = List.init (lo + 1) (fun k -> k) in
              List.mapi (fun rank idx -> mk_point ra idx rank holder_loc)
                (upper @ lower)
            end
          | _ -> []
        end
        | _ ->
          (* different regions of the common ancestor: exclusive
             branches of an If (or cond/body of a While) — a barrier
             cannot interleave between them *)
          []
      end
    end

(* --- redundant barriers --- *)

let redundant_barriers (t : t) : Op.op list =
  let ctx = t.t_ctx in
  let acc = ref [] in
  Op.iter_region
    (fun (b : Op.op) ->
      if b.Op.kind = Op.Barrier then begin
        match Hashtbl.find_opt t.t_closes b.Op.oid, barrier_opens t b with
        | Some closed, Some opened ->
          let before =
            List.concat_map (interval_accesses t)
              (IS.elements (IS.union closed.u closed.s))
          in
          let after = interval_accesses t opened in
          if not (Effects.conflicts_cross ctx before after) then
            acc := b :: !acc
        | _ -> ()
      end)
    t.t_par.Op.regions.(0);
  List.rev !acc
