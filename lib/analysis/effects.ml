(* Memory-effect analysis: the semantic foundation of the paper's
   [polygeist.barrier].

   A barrier's behaviour is *defined* as: the union of the read and write
   effects of the code reachable before it (up to the previous barrier or
   the start of the parallel region) and after it (up to the next barrier
   or the end of the region), excluding accesses provably made only by the
   executing thread (Sec. III-A).  All barrier transformations —
   elimination, motion, store-to-load forwarding across barriers — reduce
   to conflict queries between collections of accesses. *)

open Ir

type kind =
  | Read
  | Write

type access =
  { base : Value.t option (* None: may touch any location *)
  ; acc_kind : kind
  ; idx : Affine.expr option list option
    (* None: unknown indexing; Some dims: per-dimension affine forms *)
  ; pinned : Affine.expr Value.Map.t
    (* thread ivs pinned by enclosing guards (e.g. accesses under
       [if (tx == 0)]), each to the invariant value it is compared with *)
  ; livs : Value.Set.t
    (* serial-loop ivs (inside the parallel region) appearing in [idx];
       their cross-thread equality only holds within one iteration *)
  ; shifted : bool (* collected through loop wrap-around *)
  ; src : Op.op option
    (* the load/store/call the access was collected from, for
       diagnostics; None for synthetic/unknown accesses *)
  }

let mk_access ?base ?idx ?(pinned = Value.Map.empty)
    ?(livs = Value.Set.empty) ?(shifted = false) ?src acc_kind =
  { base; acc_kind; idx; pinned; livs; shifted; src }

let unknown_rw = [ mk_access Read; mk_access Write ]

(* --- call effect summaries --- *)

type summary_item =
  { s_kind : kind
  ; s_param : int option (* None: unknown base *)
  }

type summaries = (string, summary_item list option ref) Hashtbl.t
(* [None] marks an in-progress summary (recursion): treated as unknown. *)

let new_summaries () : summaries = Hashtbl.create 16

let unknown_summary = [ { s_kind = Read; s_param = None }; { s_kind = Write; s_param = None } ]

(* Is [v] (a memref) a private allocation made inside [func]? *)
let rec base_origin_in_func (defs : Op.op Value.Tbl.t) (params : Value.t array)
    (v : Value.t) : [ `Param of int | `Private | `Unknown ] =
  match Array.find_index (fun p -> Value.equal p v) params with
  | Some i -> `Param i
  | None -> begin
    match Value.Tbl.find_opt defs v with
    | Some { Op.kind = Op.Alloc | Op.Alloca; _ } -> `Private
    | Some { Op.kind = Op.Cast _; operands; _ } ->
      base_origin_in_func defs params operands.(0)
    | _ -> `Unknown
  end

let rec summarize (modul : Op.op) (tbl : summaries) (name : string) :
  summary_item list =
  match Hashtbl.find_opt tbl name with
  | Some { contents = Some s } -> s
  | Some { contents = None } -> unknown_summary (* recursive cycle *)
  | None -> begin
    match Op.find_func modul name with
    | None -> unknown_summary
    | Some f ->
      let cell = ref None in
      Hashtbl.replace tbl name cell;
      let params = f.regions.(0).rargs in
      let defs = Value.Tbl.create 64 in
      Op.iter
        (fun o -> Array.iter (fun r -> Value.Tbl.replace defs r o) o.results)
        f;
      let acc = ref [] in
      let add k p = acc := { s_kind = k; s_param = p } :: !acc in
      let add_base k (v : Value.t) =
        match base_origin_in_func defs params v with
        | `Param i -> add k (Some i)
        | `Private -> ()
        | `Unknown -> add k None
      in
      Op.iter
        (fun (o : Op.op) ->
          match o.kind with
          | Op.Load -> add_base Read o.operands.(0)
          | Op.Store -> add_base Write o.operands.(1)
          | Op.Copy ->
            add_base Read o.operands.(0);
            add_base Write o.operands.(1)
          | Op.Call callee ->
            let cs = summarize modul tbl callee in
            List.iter
              (fun (it : summary_item) ->
                match it.s_param with
                | None -> add it.s_kind None
                | Some i ->
                  if i < Array.length o.operands then
                    add_base it.s_kind o.operands.(i))
              cs
          | _ -> ())
        f;
      (* dedupe *)
      let s = List.sort_uniq compare !acc in
      cell := Some s;
      s
  end

(* --- analysis context --- *)

type ctx =
  { info : Info.t
  ; modul : Op.op option (* for call summaries *)
  ; summaries : summaries
  ; par : Op.op option (* the block-parallel loop under analysis *)
  ; tids : Value.Set.t
  ; extents : int Value.Map.t
    (* each thread iv whose bounds are the literals [0, n), n > 0, to n *)
  }

let make_ctx ?modul ?par (info : Info.t) : ctx =
  let tids, extents =
    match par with
    | None -> (Value.Set.empty, Value.Map.empty)
    | Some p ->
      let ivs = p.Op.regions.(0).rargs in
      let lit = Info.int_literal info in
      let extents = ref Value.Map.empty in
      for i = 0 to Op.par_dims p - 1 do
        match lit (Op.par_lo p i), lit (Op.par_hi p i) with
        | Some 0, Some n when n > 0 ->
          extents := Value.Map.add ivs.(i) n !extents
        | _ -> ()
      done;
      (Value.Set.of_list (Array.to_list ivs), !extents)
  in
  { info; modul; summaries = new_summaries (); par; tids; extents }

(* Thread ivs whose extent is statically 1 (e.g. the unused z dimension of
   a 2-D launch): always equal across threads. *)
let unit_tids (ctx : ctx) : Value.Set.t =
  Value.Map.fold
    (fun v n acc -> if n = 1 then Value.Set.add v acc else acc)
    ctx.extents Value.Set.empty

(* Affine classification for index derivation: thread ivs and serial-loop
   ivs are symbols; anything defined outside the parallel region is an
   invariant symbol; the rest is expanded through pure integer
   arithmetic. *)
let classify (ctx : ctx) (v : Value.t) : [ `Sym | `Expand | `Opaque ] =
  if Value.Set.mem v ctx.tids then `Sym
  else
    match Info.defining_op ctx.info v with
    (* A constant is a constant wherever it is defined: expanding it
       keeps [i * c] affine even when canonicalize hoisted [c] out of
       the parallel region (a bare symbol would make the product
       var*var and the whole index opaque). *)
    | Some { Op.kind = Op.Constant _; _ } -> `Expand
    | _ -> begin
      match ctx.par with
      | None -> `Sym (* no parallel context: every leaf is a plain symbol *)
      | Some par ->
        if not (Info.defined_inside ctx.info ~container:par v) then `Sym
        else begin
          match Info.def ctx.info v with
          (* the iv only: an iter_arg carries a per-thread value *)
          | Info.Def_arg ({ Op.kind = Op.For; _ }, 0) -> `Sym
          | Info.Def_arg _ -> `Opaque
          | Info.Def_op _ | Info.Def_external -> `Expand
        end
    end

let derive_idx (ctx : ctx) (idx_operands : Value.t array) :
  Affine.expr option list * Value.Set.t =
  let livs = ref Value.Set.empty in
  let dims =
    Array.to_list idx_operands
    |> List.map (fun v ->
        match Affine.of_value ctx.info ~classify:(classify ctx) v with
        | None -> None
        | Some e ->
          List.iter
            (fun sym ->
              match Info.def ctx.info sym with
              | Info.Def_arg ({ Op.kind = Op.For; _ }, 0)
                when (match ctx.par with
                      | Some par ->
                        Info.defined_inside ctx.info ~container:par sym
                      | None -> false) ->
                livs := Value.Set.add sym !livs
              | _ -> ())
            (Affine.variables e);
          Some e)
  in
  (dims, !livs)

(* Guard pinning: an access nested under [if (tx == e)], with [e]
   thread-invariant, runs only where tx is [e].  Recognizes conditions
   that are equality comparisons between a bare thread iv and an
   invariant expression, and maps the iv to that expression. *)
let pinned_by_cond (ctx : ctx) (cond : Value.t) : Affine.expr Value.Map.t =
  match Info.defining_op ctx.info cond with
  | Some { Op.kind = Op.Cmp Op.Eq; operands; _ } ->
    let side pins (v, other) =
      if Value.Set.mem v ctx.tids then begin
        (* other side must be invariant across threads *)
        match Affine.of_value ctx.info ~classify:(classify ctx) other with
        | Some e
          when List.for_all
                 (fun s -> not (Value.Set.mem s ctx.tids))
                 (Affine.variables e) ->
          Value.Map.add v e pins
        | _ -> pins
      end
      else pins
    in
    List.fold_left side Value.Map.empty
      [ (operands.(0), operands.(1)); (operands.(1), operands.(0)) ]
  | _ -> Value.Map.empty

(* The pins inside a guard: an inner pin of an iv replaces the outer
   one (where the two differ, the code never runs). *)
let add_pins outer inner = Value.Map.union (fun _ _ e -> Some e) outer inner

(* The thread ivs two pin sets pin to the same value: equal in any two
   executions of the accesses they guard. *)
let same_pins a b : Value.Set.t =
  Value.Map.fold
    (fun v ea acc ->
      match Value.Map.find_opt v b with
      | Some eb when Affine.equal ea eb -> Value.Set.add v acc
      | _ -> acc)
    a Value.Set.empty

(* --- collecting the effects of an op subtree --- *)

let shift_access (a : access) : access =
  (* wrap-around: loop-iv symbols are no longer comparable across the
     barrier — drop the affine info of dimensions that mention them, and
     the pins, whose guard values may be another iteration's. *)
  let a = { a with shifted = true; pinned = Value.Map.empty } in
  if Value.Set.is_empty a.livs then a
  else
    { a with
      idx =
        Option.map
          (List.map (fun d ->
               match d with
               | Some e
                 when List.exists
                        (fun v -> Value.Set.mem v a.livs)
                        (Affine.variables e) ->
                 None
               | d -> d))
          a.idx
    }

let rec collect_op (ctx : ctx) ~(pinned : Affine.expr Value.Map.t) (op : Op.op) :
  access list =
  match op.kind with
  | Op.Load ->
    let dims, livs =
      derive_idx ctx (Array.sub op.operands 1 (Array.length op.operands - 1))
    in
    [ mk_access ~base:op.operands.(0) ~idx:dims ~pinned ~livs ~src:op Read ]
  | Op.Store ->
    let dims, livs =
      derive_idx ctx (Array.sub op.operands 2 (Array.length op.operands - 2))
    in
    [ mk_access ~base:op.operands.(1) ~idx:dims ~pinned ~livs ~src:op Write ]
  | Op.Copy ->
    [ mk_access ~base:op.operands.(0) ~pinned ~src:op Read
    ; mk_access ~base:op.operands.(1) ~pinned ~src:op Write
    ]
  | Op.Dealloc -> [ mk_access ~base:op.operands.(0) ~pinned ~src:op Write ]
  | Op.Call name -> begin
    match ctx.modul with
    | None -> unknown_rw
    | Some m ->
      summarize m ctx.summaries name
      |> List.map (fun (it : summary_item) ->
          match it.s_param with
          | Some i when i < Array.length op.operands ->
            mk_access ~base:op.operands.(i) ~pinned ~src:op it.s_kind
          | _ -> mk_access ~pinned ~src:op it.s_kind)
  end
  | Op.If ->
    let then_pin = add_pins pinned (pinned_by_cond ctx op.operands.(0)) in
    collect_region ctx ~pinned:then_pin op.regions.(0)
    @ collect_region ctx ~pinned op.regions.(1)
  | Op.Constant _ | Op.Binop _ | Op.Cmp _ | Op.Select | Op.Cast _ | Op.Math _
  | Op.Alloc | Op.Alloca | Op.Dim _ | Op.Barrier | Op.OmpBarrier | Op.Yield
  | Op.Condition | Op.Return ->
    []
  | Op.Module | Op.Func _ | Op.For | Op.While | Op.Parallel _
  | Op.OmpParallel | Op.OmpWsloop ->
    Array.to_list op.regions
    |> List.concat_map (fun r -> collect_region ctx ~pinned r)

and collect_region ctx ~pinned (r : Op.region) : access list =
  List.concat_map (collect_op ctx ~pinned) r.body

let collect (ctx : ctx) (ops : Op.op list) : access list =
  List.concat_map (collect_op ctx ~pinned:Value.Map.empty) ops

(* --- aliasing of bases --- *)

type origin =
  | Oalloc of int (* oid of the allocating op *)
  | Oparam of int (* value id: function parameter / region argument *)
  | Ounknown

let origin (info : Info.t) (v : Value.t) : origin =
  let rec go (v : Value.t) =
    match Info.def info v with
    | Info.Def_op { Op.kind = Op.Alloc | Op.Alloca; oid; _ } -> Oalloc oid
    | Info.Def_op { Op.kind = Op.Cast _; operands; _ } -> go operands.(0)
    | Info.Def_arg ({ Op.kind = Op.Func _; _ }, _) -> Oparam v.Value.id
    | Info.Def_external -> Oparam v.Value.id
    | Info.Def_op _ | Info.Def_arg _ -> Ounknown
  in
  go v

(* May two base pointers refer to overlapping memory?  Distinct
   allocations never alias; an allocation made inside the function cannot
   alias a parameter; distinct parameters are assumed noalias (CUDA kernel
   arguments and Rodinia-style C code satisfy this; documented in
   DESIGN.md). *)
let bases_may_alias (info : Info.t) (a : Value.t) (b : Value.t) : bool =
  if Value.equal a b then true
  else
    match origin info a, origin info b with
    | Oalloc x, Oalloc y -> x = y
    | Oalloc _, Oparam _ | Oparam _, Oalloc _ -> false
    | Oparam x, Oparam y -> x = y
    | Ounknown, _ | _, Ounknown -> true

(* --- conflict queries --- *)

let is_rar a b = a.acc_kind = Read && b.acc_kind = Read

(* The pair decision: what would equal addresses tell about the two
   threads t1 and t2 executing [a] and [b]?  Either the addresses are
   never equal, or they force a set of thread ivs equal in t1 and t2:
   the unit-extent ivs, the ivs both accesses' guards pin to the same
   value, and those the index dimensions force through the injectivity
   argument with the ivs' extents.  The dimensions never meet when they
   force an iv equal that the two guards pin apart.
   [exact] holds when both bases are the same value and every dimension
   was decided ([Forces]): then, with thread-uniform symbols, threads
   that agree on the forced ivs touch the same address. *)
type meet =
  | Never
  | Forced of
      { ivs : Value.Set.t
      ; exact : bool
      }

(* The values an [scf.for] iv with literal bounds [lo < hi] and a
   positive literal step takes lie in [lo, hi - 1]. *)
let iv_range (ctx : ctx) (v : Value.t) : (int * int) option =
  match Info.def ctx.info v with
  | Info.Def_arg (({ Op.kind = Op.For; _ } as f), 0) -> begin
    let lit = Info.int_literal ctx.info in
    match lit (Op.for_lo f), lit (Op.for_hi f), lit (Op.for_step f) with
    | Some lo, Some hi, Some step when lo < hi && step > 0 -> Some (lo, hi - 1)
    | _ -> None
  end
  | _ -> None

(* Do the guards of [a] and [b] pin [v] apart: is their gap never 0?
   The gap's range comes from the literal ranges of the loop ivs it
   mentions, which is sound because the two pins are read in the same
   iteration (a wrap-around copy carries none); a gap over any other
   variable may be 0. *)
let pinned_apart (ctx : ctx) (a : access) (b : access) (v : Value.t) : bool =
  match Value.Map.(find_opt v a.pinned, find_opt v b.pinned) with
  | Some pa, Some pb -> begin
    let d = Affine.sub pa pb in
    let range =
      Affine.VM.fold
        (fun x c acc ->
          match acc, iv_range ctx x with
          | Some (lo, hi), Some (xlo, xhi) ->
            Some (lo + min (c * xlo) (c * xhi), hi + max (c * xlo) (c * xhi))
          | _ -> None)
        d.terms
        (Some (d.const, d.const))
    in
    match range with
    | Some (lo, hi) -> lo > 0 || hi < 0
    | None -> false
  end
  | _ -> false

(* The index dimensions' share of [meet]: [None] when the addresses are
   never equal, else the thread ivs the dimensions force and whether
   every dimension was decided. *)
let meet_dims (ctx : ctx) (a : access) (b : access) :
  (Value.Set.t * bool) option =
  let undecided = Some (Value.Set.empty, false) in
  match a.base, b.base with
  | None, _ | _, None -> undecided
  | Some ba, Some bb ->
    if not (bases_may_alias ctx.info ba bb) then None
    else if not (Value.equal ba bb) then undecided
    else begin
      match a.idx, b.idx with
      | Some da, Some db when List.length da = List.length db ->
        let extent v = Value.Map.find_opt v ctx.extents in
        let rec fold ivs exact da db =
          match da, db with
          | Some ea :: da, Some eb :: db -> begin
            match Affine.compare_dim ~tids:ctx.tids ~extent ea eb with
            | Affine.Disjoint -> None
            | Affine.Forces s -> fold (Value.Set.union ivs s) exact da db
            | Affine.Maybe -> fold ivs false da db
          end
          | _ :: da, _ :: db -> fold ivs false da db
          | _ ->
            if Value.Set.exists (pinned_apart ctx a b) ivs then None
            else Some (ivs, exact)
        in
        fold Value.Set.empty true da db
      | _ -> undecided
    end

let meet (ctx : ctx) (a : access) (b : access) : meet =
  match meet_dims ctx a b with
  | None -> Never
  | Some (ivs, exact) ->
    Forced
      { ivs =
          Value.Set.union ivs
            (Value.Set.union (unit_tids ctx) (same_pins a.pinned b.pinned))
      ; exact
      }

(* Cross-thread conflict: can accesses [a] and [b], executed by two
   *different* threads, touch the same address (with at least one write)?
   Not when equal addresses force every thread iv equal: then the
   "conflict" is within a single thread, where program order handles
   it.  This is the test behind barrier elimination and motion. *)
let cross_thread_conflict (ctx : ctx) (a : access) (b : access) : bool =
  (not (is_rar a b))
  &&
  match meet ctx a b with
  | Never -> false
  | Forced { ivs; _ } -> not (Value.Set.subset ctx.tids ivs)

(* Any-thread conflict: can the two accesses touch the same address at
   all (same or different thread)?  Used by the lock-step LICM check. *)
let any_thread_conflict (ctx : ctx) (a : access) (b : access) : bool =
  (not (is_rar a b)) && Option.is_some (meet_dims ctx a b)

let conflicts_cross ctx (xs : access list) (ys : access list) : bool =
  List.exists (fun a -> List.exists (cross_thread_conflict ctx a) ys) xs

(* --- barrier before/after interval sets --- *)

(* Scan backward from just before [idx] in [ops]; stop at a barrier.
   A sibling construct that itself contains barriers only contributes its
   "tail" — the effects after its last barrier along each path — and
   shields earlier code exactly when every path through it passes a
   barrier (e.g. a loop whose body ends in __syncthreads and whose trip
   count is provably nonzero). *)
let rec scan_ops_back ctx ~(shifted : bool) (ops : Op.op list) (idx : int) :
  access list * bool =
  let acc = ref [] in
  let stopped = ref false in
  let i = ref (idx - 1) in
  let arr = Array.of_list ops in
  while !i >= 0 && not !stopped do
    let o = arr.(!i) in
    if o.Op.kind = Op.Barrier then stopped := true
    else if Op.contains_barrier o then begin
      let t, s = tail_effects ctx ~shifted o in
      acc := t @ !acc;
      if s then stopped := true
      else begin
        (* barrier-free paths may bypass it: fall back to its full
           effects and keep scanning *)
        let effs = collect_op ctx ~pinned:Value.Map.empty o in
        let effs = if shifted then List.map shift_access effs else effs in
        acc := effs @ !acc
      end
    end
    else begin
      let effs = collect_op ctx ~pinned:Value.Map.empty o in
      let effs = if shifted then List.map shift_access effs else effs in
      acc := effs @ !acc
    end;
    decr i
  done;
  (!acc, !stopped)

(* Effects of [op] seen when arriving from *after* it, up to its last
   barrier; the bool says whether every path through [op] hits a
   barrier. *)
and tail_effects ctx ~(shifted : bool) (op : Op.op) : access list * bool =
  match op.Op.kind with
  | Op.For ->
    let body = op.Op.regions.(0).body in
    let t, s = scan_ops_back ctx ~shifted body (List.length body) in
    (t, s && Info.trip_nonzero ctx.info op)
  | Op.If ->
    let scan r =
      let body = op.Op.regions.(r).Op.body in
      if body = [] then ([], false)
      else scan_ops_back ctx ~shifted body (List.length body)
    in
    let t0, s0 = scan 0 in
    let t1, s1 = scan 1 in
    (t0 @ t1, s0 && s1)
  | Op.While ->
    (* the cond region always runs last before exiting *)
    let cond = op.Op.regions.(0).Op.body in
    let tc, sc = scan_ops_back ctx ~shifted cond (List.length cond) in
    if sc then (tc, true)
    else begin
      (* the last iteration's tail precedes the exit in program order —
         not a wrap path, so keep the incoming flag (like For) *)
      let body = op.Op.regions.(1).Op.body in
      let tb, _ = scan_ops_back ctx ~shifted body (List.length body) in
      (tc @ tb, false) (* the body may have run zero times *)
    end
  | _ ->
    (collect_op ctx ~pinned:Value.Map.empty op, false)

let rec scan_ops_fwd ctx ~(shifted : bool) (ops : Op.op list) (idx : int) :
  access list * bool =
  let acc = ref [] in
  let stopped = ref false in
  let arr = Array.of_list ops in
  let i = ref (idx + 1) in
  while !i < Array.length arr && not !stopped do
    let o = arr.(!i) in
    if o.Op.kind = Op.Barrier then stopped := true
    else if Op.contains_barrier o then begin
      let h, s = head_effects ctx ~shifted o in
      acc := !acc @ h;
      if s then stopped := true
      else begin
        let effs = collect_op ctx ~pinned:Value.Map.empty o in
        let effs = if shifted then List.map shift_access effs else effs in
        acc := !acc @ effs
      end
    end
    else begin
      let effs = collect_op ctx ~pinned:Value.Map.empty o in
      let effs = if shifted then List.map shift_access effs else effs in
      acc := !acc @ effs;
      if Op.contains_barrier o then stopped := true
    end;
    incr i
  done;
  (!acc, !stopped)

(* Effects of [op] seen when arriving from *before* it, up to its first
   barrier. *)
and head_effects ctx ~(shifted : bool) (op : Op.op) : access list * bool =
  match op.Op.kind with
  | Op.For ->
    let h, s = scan_ops_fwd ctx ~shifted op.Op.regions.(0).body (-1) in
    (h, s && Info.trip_nonzero ctx.info op)
  | Op.If ->
    let scan r =
      let body = op.Op.regions.(r).Op.body in
      if body = [] then ([], false) else scan_ops_fwd ctx ~shifted body (-1)
    in
    let h0, s0 = scan 0 in
    let h1, s1 = scan 1 in
    (h0 @ h1, s0 && s1)
  | Op.While ->
    (* the cond region always runs first *)
    let hc, sc = scan_ops_fwd ctx ~shifted op.Op.regions.(0).body (-1) in
    if sc then (hc, true)
    else begin
      (* first-iteration body head: the entry path, not a wrap (like
         For) — later iterations are covered by the in-loop wrap walk *)
      let hb, _ = scan_ops_fwd ctx ~shifted op.Op.regions.(1).body (-1) in
      (hc @ hb, false)
    end
  | _ ->
    (collect_op ctx ~pinned:Value.Map.empty op, false)

(* Position of [op] within its parent's regions. *)
let position_in_parent (info : Info.t) (op : Op.op) :
  (Op.op * int (* region index *) * int (* op index *)) option =
  match Info.parent info op with
  | None -> None
  | Some parent ->
    let found = ref None in
    Array.iteri
      (fun ri (r : Op.region) ->
        List.iteri
          (fun oi (o : Op.op) ->
            if o.Op.oid = op.Op.oid then found := Some (parent, ri, oi))
          r.body)
      parent.Op.regions;
    !found

(* Effects reachable backward from (just before) op [at], stopping at
   barriers and at the parallel region start; follows wrap-around edges of
   enclosing loops. *)
let rec effects_before ctx ~(par : Op.op) ~(shifted : bool) (at : Op.op) :
  access list =
  match position_in_parent ctx.info at with
  | None -> []
  | Some (parent, ri, oi) ->
    let ops = parent.Op.regions.(ri).body in
    let here, stopped = scan_ops_back ctx ~shifted ops oi in
    if stopped || parent.Op.oid = par.Op.oid then here
    else begin
      match parent.Op.kind with
      | Op.If -> here @ effects_before ctx ~par ~shifted parent
      | Op.For ->
        (* Predecessors of the loop-body start are BOTH the loop entry
           (always — the first iteration comes from before the loop) and
           the back edge (the tail of the previous iteration, up to a
           barrier).  The entry path must always be explored. *)
        let body = parent.Op.regions.(0).body in
        let wrap, _wrap_stopped =
          scan_ops_back ctx ~shifted:true body (List.length body)
        in
        (* only the back edge is a wrap: the entry path keeps the
           incoming flag — accesses before the loop are ordered with the
           leaf by plain program order, so a barrier between them
           separates the pair (see [Mhp.separation_points]) *)
        here @ wrap @ effects_before ctx ~par ~shifted parent
      | Op.While ->
        if ri = 0 then begin
          (* cond-start predecessors: the while entry (always) and the
             body end (wrap) *)
          let body = parent.Op.regions.(1).body in
          let wrap, _ =
            scan_ops_back ctx ~shifted:true body (List.length body)
          in
          here @ wrap @ effects_before ctx ~par ~shifted parent
        end
        else begin
          (* body-start predecessor: the cond region end (the cond always
             runs immediately before the body) *)
          let cond = parent.Op.regions.(0).body in
          let c, c_stopped =
            scan_ops_back ctx ~shifted cond (List.length cond)
          in
          let beyond =
            if c_stopped then []
            else begin
              (* before the cond: the while entry and the body-end wrap *)
              let wrap, _ =
                scan_ops_back ctx ~shifted:true
                  parent.Op.regions.(1).body
                  (List.length parent.Op.regions.(1).body)
              in
              wrap @ effects_before ctx ~par ~shifted parent
            end
          in
          here @ c @ beyond
        end
      | _ -> here @ effects_before ctx ~par ~shifted parent
    end

let rec effects_after ctx ~(par : Op.op) ~(shifted : bool) (at : Op.op) :
  access list =
  match position_in_parent ctx.info at with
  | None -> []
  | Some (parent, ri, oi) ->
    let ops = parent.Op.regions.(ri).body in
    let here, stopped = scan_ops_fwd ctx ~shifted ops oi in
    if stopped || parent.Op.oid = par.Op.oid then here
    else begin
      match parent.Op.kind with
      | Op.If -> here @ effects_after ctx ~par ~shifted parent
      | Op.For ->
        (* Successors of the loop-body end are BOTH the loop exit (always)
           and the back edge (the head of the next iteration, up to a
           barrier).  The exit path must always be explored. *)
        let body = parent.Op.regions.(0).body in
        let wrap, _ = scan_ops_fwd ctx ~shifted:true body (-1) in
        (* the wrap scan is shifted; the exit path keeps the incoming
           flag — post-loop accesses follow the leaf in program order *)
        here @ wrap @ effects_after ctx ~par ~shifted parent
      | Op.While ->
        if ri = 0 then begin
          (* after the cond: the body (if true, wrap) and whatever follows
             the while (if false — always possible) *)
          let body = parent.Op.regions.(1).body in
          let b, _ = scan_ops_fwd ctx ~shifted:true body (-1) in
          here @ b @ effects_after ctx ~par ~shifted parent
        end
        else begin
          (* after the body: the cond region of the next iteration; if the
             cond has no barrier, the body head (next iteration) and the
             while exit follow *)
          let cond = parent.Op.regions.(0).body in
          let c, c_stopped = scan_ops_fwd ctx ~shifted:true cond (-1) in
          let beyond =
            if c_stopped then []
            else begin
              let bh, _ =
                scan_ops_fwd ctx ~shifted:true parent.Op.regions.(1).body (-1)
              in
              bh @ effects_after ctx ~par ~shifted parent
            end
          in
          here @ c @ beyond
        end
      | _ -> here @ effects_after ctx ~par ~shifted parent
    end

(* The two interval sets of a barrier (Sec. IV-A): effects before it up to
   the previous barrier / region start, and after it up to the next
   barrier / region end. *)
let barrier_intervals ctx ~(par : Op.op) (barrier : Op.op) :
  access list * access list =
  ( effects_before ctx ~par ~shifted:false barrier
  , effects_after ctx ~par ~shifted:false barrier )
