(* Memory-to-register promotion, including across barriers (Sec. IV-B).

   Four cooperating transformations:

   1. Slot promotion: the frontend's scalar locals (rank-0 allocas used
      only by plain loads and stores, all in the alloca's own thread
      context) become SSA values in one walk per function, the MLIR
      mem2reg over SCF the paper builds on.  Where control flow merges,
      a slot's value leaves an [scf.if] as a result and crosses [scf.for]
      iterations as an iter_arg.  A read before any store yields the
      dtype's zero, since every allocation is zero-filled.  Barriers,
      [scf.while] and ops containing either cannot carry values
      ({!Op.blocks_carry}), so a slot whose live range crosses one stays
      in memory there: it is stored before it (when its register copy is
      newer) and reloaded on first use in each barrier-free stretch after
      or inside it.

   2. Store-to-load forwarding: a load reading exactly the address of an
      earlier available store is replaced by the stored value.  A barrier
      between them does NOT kill the forwarding when the barrier's memory
      effects (accesses of *other* threads, per the Sec. III-A hole)
      cannot write that address — this is what lets the weights[ty][tx]
      store/load pair of Rodinia backprop (Fig. 9) promote to a register,
      and what joins a promoted slot's store before a barrier to its
      reload after it.

   3. Dead store elimination: a store overwritten at the same address
      before any possible observation (same-thread loads, calls,
      cross-thread reads through a barrier) is removed.

   4. Dead allocation elimination: an alloca/alloc whose only uses are
      stores into it (and deallocs) is removed together with those
      stores.  This erases the frontend's mutable-local slots once their
      loads were promoted or forwarded. *)

open Ir
open Analysis

type entry =
  { e_base : Value.t
  ; e_idx : int array (* value ids of the index operands *)
  ; e_val : Value.t
  ; e_store : Op.op
  ; mutable e_observed : bool
  ; e_read : Effects.access (* the address as a read (for write conflicts) *)
  ; e_write : Effects.access (* the address as a write (for read conflicts) *)
  }

type st =
  { subst : Clone.subst
  ; dead : (int, unit) Hashtbl.t (* oids of stores to delete *)
  ; info : Info.t
  ; modul : Op.op
  ; barrier_sets : (int, Effects.access list * Effects.access list) Hashtbl.t
  ; mutable forwards : int
  ; mutable dead_stores : int
  }

let entry_of_store (ctx : Effects.ctx) (op : Op.op) : entry =
  let idx_ops = Array.sub op.operands 2 (Array.length op.operands - 2) in
  let dims, livs = Effects.derive_idx ctx idx_ops in
  let mk kind =
    Effects.mk_access ~base:op.operands.(1) ~idx:dims ~livs kind
  in
  { e_base = op.operands.(1)
  ; e_idx = Array.map (fun (v : Value.t) -> v.id) idx_ops
  ; e_val = op.operands.(0)
  ; e_store = op
  ; e_observed = false
  ; e_read = mk Effects.Read
  ; e_write = mk Effects.Write
  }

let exact_match (e : entry) ~(base : Value.t) ~(idx : int array) =
  Value.equal e.e_base base && e.e_idx = idx

(* Access conflict helpers against an op's whole effect list. *)
let may_read_entry ctx (effs : Effects.access list) (e : entry) =
  List.exists
    (fun (a : Effects.access) ->
      a.Effects.acc_kind = Effects.Read
      && Effects.any_thread_conflict ctx e.e_write a)
    effs

let may_write_entry ctx (effs : Effects.access list) (e : entry) =
  List.exists
    (fun (a : Effects.access) ->
      a.Effects.acc_kind = Effects.Write
      && Effects.any_thread_conflict ctx e.e_read a)
    effs

let rec walk_region (st : st) ~(par : Op.op option)
    (entries : entry list ref) (ops : Op.op list) : Op.op list =
  let ctx = Effects.make_ctx ~modul:st.modul ?par st.info in
  List.concat_map
    (fun (op : Op.op) ->
      op.operands <- Array.map (Clone.lookup st.subst) op.operands;
      match op.kind with
      | Op.Store ->
        let base = op.operands.(1) in
        let idx =
          Array.map
            (fun (v : Value.t) -> v.id)
            (Array.sub op.operands 2 (Array.length op.operands - 2))
        in
        (* exact overwrite: the previous store is dead if unobserved *)
        entries :=
          List.filter
            (fun e ->
              if exact_match e ~base ~idx then begin
                if not e.e_observed then begin
                  Hashtbl.replace st.dead e.e_store.Op.oid ();
                  st.dead_stores <- st.dead_stores + 1
                end;
                false
              end
              else true)
            !entries;
        (* non-exact may-alias overwrite invalidates *)
        let this = entry_of_store ctx op in
        entries :=
          List.filter
            (fun e -> not (Effects.any_thread_conflict ctx e.e_read this.e_write))
            !entries;
        entries := this :: !entries;
        [ op ]
      | Op.Load ->
        let base = op.operands.(0) in
        let idx =
          Array.map
            (fun (v : Value.t) -> v.id)
            (Array.sub op.operands 1 (Array.length op.operands - 1))
        in
        let rec find = function
          | [] -> None
          | e :: rest -> if exact_match e ~base ~idx then Some e else find rest
        in
        begin
          match find !entries with
          | Some e ->
            st.forwards <- st.forwards + 1;
            Clone.add_subst st.subst ~from:(Op.result op) ~to_:e.e_val;
            []
          | None ->
            (* may observe entries it aliases *)
            let effs = Effects.collect_op ctx ~pinned:Value.Map.empty op in
            List.iter
              (fun e -> if may_read_entry ctx effs e then e.e_observed <- true)
              !entries;
            [ op ]
        end
      | Op.Call _ | Op.Copy | Op.Dealloc ->
        let effs = Effects.collect_op ctx ~pinned:Value.Map.empty op in
        List.iter
          (fun e -> if may_read_entry ctx effs e then e.e_observed <- true)
          !entries;
        entries := List.filter (fun e -> not (may_write_entry ctx effs e)) !entries;
        [ op ]
      | Op.Barrier -> begin
        match par, Hashtbl.find_opt st.barrier_sets op.oid with
        | Some _, Some (before, after) ->
          let others = before @ after in
          entries :=
            List.filter
              (fun e ->
                if Info.thread_private st.info e.e_base then true
                else begin
                  (* cross-thread reads observe; cross-thread writes kill *)
                  if
                    List.exists
                      (fun (a : Effects.access) ->
                        a.Effects.acc_kind = Effects.Read
                        && Effects.cross_thread_conflict ctx e.e_write a)
                      others
                  then e.e_observed <- true;
                  not
                    (List.exists
                       (fun (a : Effects.access) ->
                         a.Effects.acc_kind = Effects.Write
                         && Effects.cross_thread_conflict ctx e.e_read a)
                       others)
                end)
              !entries;
          [ op ]
        | _ ->
          (* no context: conservative *)
          List.iter (fun e -> e.e_observed <- true) !entries;
          entries :=
            List.filter
              (fun e -> Info.thread_private st.info e.e_base)
              !entries;
          [ op ]
      end
      | Op.OmpBarrier ->
        let shared e = not (Info.thread_private st.info e.e_base) in
        List.iter (fun e -> if shared e then e.e_observed <- true) !entries;
        entries := List.filter (fun e -> not (shared e)) !entries;
        [ op ]
      | Op.Module | Op.Func _ ->
        Array.iter
          (fun (r : Op.region) ->
            let inner = ref [] in
            r.body <- walk_region st ~par:None inner r.body)
          op.regions;
        [ op ]
      | Op.For | Op.While | Op.If | Op.Parallel _ | Op.OmpParallel
      | Op.OmpWsloop ->
        (* observe/invalidate outer entries by the subtree's effects, then
           recurse with the survivors visible inside *)
        let effs = Effects.collect ctx [ op ] in
        List.iter
          (fun e -> if may_read_entry ctx effs e then e.e_observed <- true)
          !entries;
        entries := List.filter (fun e -> not (may_write_entry ctx effs e)) !entries;
        let inner_par =
          match op.kind with Op.Parallel Op.Block -> Some op | _ -> par
        in
        Array.iter
          (fun (r : Op.region) ->
            (* region-local view: outer entries visible inside, entries
               created by local stores die at region exit *)
            let inner = ref !entries in
            r.body <- walk_region st ~par:inner_par inner r.body)
          op.regions;
        [ op ]
      | _ ->
        [ op ])
    ops

(* --- dead allocation elimination --- *)

let dead_allocas (m : Op.op) : int =
  let removed = ref 0 in
  let uses : (int, [ `Store_target | `Dealloc | `Other ] list ref) Hashtbl.t =
    Hashtbl.create 64
  in
  let note (v : Value.t) u =
    match Hashtbl.find_opt uses v.id with
    | Some l -> l := u :: !l
    | None -> Hashtbl.replace uses v.id (ref [ u ])
  in
  Op.iter
    (fun (o : Op.op) ->
      match o.kind with
      | Op.Store ->
        note o.operands.(1) `Store_target;
        note o.operands.(0) `Other
      | Op.Dealloc -> note o.operands.(0) `Dealloc
      | _ -> Array.iter (fun v -> note v `Other) o.operands)
    m;
  let removable (v : Value.t) =
    match Hashtbl.find_opt uses v.id with
    | None -> true
    | Some l -> List.for_all (fun u -> u <> `Other) !l
  in
  let doomed = Hashtbl.create 16 in
  Op.iter
    (fun (o : Op.op) ->
      match o.kind with
      | (Op.Alloc | Op.Alloca) when removable (Op.result o) ->
        Hashtbl.replace doomed (Op.result o).id ()
      | _ -> ())
    m;
  let rec clean (op : Op.op) : Op.op list =
    Array.iter
      (fun (r : Op.region) -> r.body <- List.concat_map clean r.body)
      op.regions;
    match op.kind with
    | Op.Alloc | Op.Alloca when Hashtbl.mem doomed (Op.result op).id ->
      incr removed;
      []
    | Op.Store when Hashtbl.mem doomed op.operands.(1).id -> []
    | Op.Dealloc when Hashtbl.mem doomed op.operands.(0).id -> []
    | _ -> [ op ]
  in
  (match clean m with [ _ ] -> () | _ -> ());
  !removed

(* --- slot promotion --- *)

module IS = Set.Make (Int)
module IM = Map.Make (Int)

(* What a structured op does to the candidate slots, computed once per
   op: the slots it loads or stores anywhere inside, the ones it
   stores, whether it contains an op no carried value may cross, and
   whether that includes a barrier. *)
type summary =
  { used : IS.t
  ; stored : IS.t
  ; blocks : bool
  ; barrier : bool
  }

(* A slot at a program point: [cur] is the SSA value it holds ([None]:
   only memory knows), [dirty] that memory lags behind [cur]. *)
type slot_st =
  { cur : Value.t option
  ; dirty : bool
  }

type pst =
  { cands : (int, Value.t * Types.dtype) Hashtbl.t
    (* memref value id -> the slot and its element type *)
  ; summaries : (int, summary) Hashtbl.t (* op oid -> summary *)
  ; psubst : Clone.subst
  ; mutable promoted : int (* loads replaced by SSA values *)
  ; mutable carried : int (* if results and iter_args added *)
  }

(* Rank-0 allocas used only as the memref of plain loads and stores of
   their own element type, all in the alloca's parallel context (no
   parallel loop or OpenMP region in between: the slot then belongs to
   one thread).  One walk over the module. *)
let find_candidates (m : Op.op) : (int, Value.t * Types.dtype) Hashtbl.t =
  let cands = Hashtbl.create 16 in
  let home = Hashtbl.create 16 in
  let rec go ctx (op : Op.op) =
    Array.iteri
      (fun i (v : Value.t) ->
        match Hashtbl.find_opt cands v.Value.id with
        | None -> ()
        | Some (_, elem) ->
          let plain =
            match op.Op.kind with
            | Op.Load -> i = 0 && Array.length op.Op.operands = 1
            | Op.Store ->
              i = 1
              && Array.length op.Op.operands = 2
              && Types.equal op.Op.operands.(0).Value.typ (Types.Scalar elem)
            | _ -> false
          in
          if (not plain) || Hashtbl.find home v.Value.id <> ctx then
            Hashtbl.remove cands v.Value.id)
      op.Op.operands;
    (match op.Op.kind, op.Op.results with
     | ( Op.Alloca
       , [| ({ Value.typ = Types.Memref { shape = []; elem; _ }; _ } as v) |] )
       ->
       Hashtbl.replace cands v.Value.id (v, elem);
       Hashtbl.replace home v.Value.id ctx
     | _ -> ());
    let ctx =
      match op.Op.kind with
      | Op.Parallel _ | Op.OmpParallel | Op.OmpWsloop | Op.Func _ -> op.Op.oid
      | _ -> ctx
    in
    Array.iter (fun (r : Op.region) -> List.iter (go ctx) r.Op.body) op.Op.regions
  in
  go 0 m;
  cands

let no_effect = { used = IS.empty; stored = IS.empty; blocks = false; barrier = false }

let rec summary (p : pst) (op : Op.op) : summary =
  match Hashtbl.find_opt p.summaries op.Op.oid with
  | Some sm -> sm
  | None ->
    let add (acc : summary) (c : Op.op) =
      let slot k = Hashtbl.mem p.cands c.Op.operands.(k).Value.id in
      match c.Op.kind with
      | Op.Load when slot 0 ->
        { acc with used = IS.add c.Op.operands.(0).Value.id acc.used }
      | Op.Store when slot 1 ->
        let id = c.Op.operands.(1).Value.id in
        { acc with used = IS.add id acc.used; stored = IS.add id acc.stored }
      | _ ->
        let k = if c.Op.regions = [||] then no_effect else summary p c in
        { used = IS.union acc.used k.used
        ; stored = IS.union acc.stored k.stored
        ; blocks = acc.blocks || k.blocks || Op.blocks_carry c
        ; barrier = acc.barrier || k.barrier || c.Op.kind = Op.Barrier
        }
    in
    let sm =
      Array.fold_left
        (fun acc (r : Op.region) -> List.fold_left add acc r.Op.body)
        no_effect op.Op.regions
    in
    Hashtbl.replace p.summaries op.Op.oid sm;
    sm

let slot_value (p : pst) id = fst (Hashtbl.find p.cands id)
let slot_dtype (p : pst) id = snd (Hashtbl.find p.cands id)

let zero_of (d : Types.dtype) =
  if Types.is_float_dtype d then Builder.const_float ~dtype:d 0.0
  else Builder.const_int ~dtype:d 0

(* A region body without its trailing yield, and that yield's operands
   (substituted: the walk has already renamed what the body defines). *)
let split_yield (r : Op.region) : Op.op list * Op.op option =
  match Op.region_yield r with
  | None -> (r.Op.body, None)
  | Some y -> (List.filter (fun o -> o != y) r.Op.body, Some y)

let yielded_after (p : pst) = function
  | None -> []
  | Some (y : Op.op) -> Array.to_list (Array.map (Clone.lookup p.psubst) y.Op.operands)

(* The current values of [ids] in [s] (each has one inside a carrying
   op: the walk loads any missing one before entering it). *)
let currents (s : slot_st IM.t) ids =
  List.map (fun id -> Option.get (IM.find id s).cur) ids

(* Stores writing back the dirty slots of [s] selected by [pick]. *)
let write_back (p : pst) (s : slot_st IM.t) (pick : int -> bool) :
  Op.op list * slot_st IM.t =
  let stores = ref [] in
  let s =
    IM.mapi
      (fun id st ->
        match st.cur with
        | Some v when st.dirty && pick id ->
          stores := Builder.store v (slot_value p id) [] :: !stores;
          { st with dirty = false }
        | _ -> st)
      s
  in
  (List.rev !stores, s)

let forget (s : slot_st IM.t) (pick : int -> bool) =
  IM.mapi (fun id st -> if pick id then { cur = None; dirty = false } else st) s

let rec promote_ops (p : pst) (s : slot_st IM.t) (ops : Op.op list) :
  Op.op list * slot_st IM.t =
  let out = ref [] in
  let emit o = out := o :: !out in
  let s = ref s in
  let flush_forget pick =
    let stores, s' = write_back p !s pick in
    List.iter emit stores;
    s := forget s' pick
  in
  List.iter
    (fun (op : Op.op) ->
      op.Op.operands <- Array.map (Clone.lookup p.psubst) op.Op.operands;
      let mine k = IM.mem op.Op.operands.(k).Value.id !s in
      match op.Op.kind with
      | Op.Alloca when Hashtbl.mem p.cands (Op.result op).Value.id ->
        let id = (Op.result op).Value.id in
        let z = zero_of (slot_dtype p id) in
        emit op;
        emit z;
        s := IM.add id { cur = Some (Op.result z); dirty = false } !s
      | Op.Load when mine 0 -> begin
        let id = op.Op.operands.(0).Value.id in
        match (IM.find id !s).cur with
        | Some v ->
          p.promoted <- p.promoted + 1;
          Clone.add_subst p.psubst ~from:(Op.result op) ~to_:v
        | None ->
          emit op;
          s := IM.add id { cur = Some (Op.result op); dirty = false } !s
      end
      | Op.Store when mine 1 ->
        s :=
          IM.add op.Op.operands.(1).Value.id
            { cur = Some op.Op.operands.(0); dirty = true }
            !s
      | Op.Barrier | Op.OmpBarrier ->
        flush_forget (fun _ -> true);
        emit op
      | Op.Module | Op.Func _ | Op.Parallel _ | Op.OmpParallel | Op.OmpWsloop
        ->
        (* a new thread context: no outer slot is used inside *)
        Array.iter
          (fun (r : Op.region) -> r.Op.body <- fst (promote_ops p IM.empty r.Op.body))
          op.Op.regions;
        emit op
      | Op.If | Op.For | Op.While ->
        let sm = summary p op in
        if sm.blocks || op.Op.kind = Op.While then begin
          (* memory holds the slots this op touches — all of them when it
             holds a barrier, so no value crosses one in a register —
             and each of its regions is a stretch of its own *)
          let pick id = sm.barrier || IS.mem id sm.used in
          flush_forget pick;
          let entry = !s in
          Array.iter
            (fun (r : Op.region) -> r.Op.body <- stretch p entry r)
            op.Op.regions;
          emit op
        end
        else begin
          let ops, s' = carry p !s op in
          List.iter emit ops;
          s := s'
        end
      | _ -> emit op)
    ops;
  (List.rev !out, !s)

(* A region walked from [entry] that writes its dirty outer slots back
   before its end (before the [scf.condition] of a while's condition
   region). *)
and stretch (p : pst) (entry : slot_st IM.t) (r : Op.region) : Op.op list =
  let body, term =
    match List.rev r.Op.body with
    | ({ Op.kind = Op.Condition; _ } as t) :: rest -> (List.rev rest, [ t ])
    | _ -> (r.Op.body, [])
  in
  let ops, s = promote_ops p entry body in
  List.iter
    (fun (t : Op.op) -> t.Op.operands <- Array.map (Clone.lookup p.psubst) t.Op.operands)
    term;
  let stores, _ = write_back p s (fun id -> IM.mem id entry) in
  ops @ stores @ term

(* An [scf.if]/[scf.for] with no blocking op inside: the outer slots it
   stores leave it as new results (and cross iterations as new
   iter_args); the ones it only reads are used in place.  Returns the
   replacement ops (loads for slots memory alone knows, then the op). *)
and carry (p : pst) (s : slot_st IM.t) (op : Op.op) :
  Op.op list * slot_st IM.t =
  let sm = summary p op in
  let outer = IS.filter (fun id -> IM.mem id s) sm.used in
  let pre = ref [] in
  let s =
    IS.fold
      (fun id s ->
        match (IM.find id s).cur with
        | Some _ -> s
        | None ->
          let ld = Builder.load (slot_value p id) [] in
          pre := ld :: !pre;
          IM.add id { cur = Some (Op.result ld); dirty = false } s)
      outer s
  in
  let stored = IS.elements (IS.filter (fun id -> IM.mem id s) sm.stored) in
  let fresh name = List.map (fun id -> Value.fresh ~name (Types.Scalar (slot_dtype p id))) stored in
  let rebuild (r : Op.region) (s_in : slot_st IM.t) =
    let body, y = split_yield r in
    let ops, s_out = promote_ops p s_in body in
    match yielded_after p y @ currents s_out stored with
    | [] -> ops
    | vals -> ops @ [ Builder.yield_ vals ]
  in
  p.carried <- p.carried + List.length stored;
  let results =
    Array.append op.Op.results
      (Array.of_list (fresh (if op.Op.kind = Op.If then "if" else "for")))
  in
  let replacement =
    match op.Op.kind with
    | Op.If ->
      let t = rebuild op.Op.regions.(0) s in
      let e = rebuild op.Op.regions.(1) s in
      if stored = [] then begin
        op.Op.regions.(0).Op.body <- t;
        op.Op.regions.(1).Op.body <- e;
        op
      end
      else
        Op.mk Op.If ~operands:op.Op.operands ~results
          ~regions:[| Op.region t; Op.region e |]
          ~attrs:op.Op.attrs ?loc:op.Op.loc
    | _ ->
      let args = fresh "it" in
      let s_body =
        List.fold_left2
          (fun s id a -> IM.add id { cur = Some a; dirty = true } s)
          s stored args
      in
      let r = op.Op.regions.(0) in
      let body = rebuild r s_body in
      if stored = [] then begin
        r.Op.body <- body;
        op
      end
      else
        Op.mk Op.For
          ~operands:(Array.append op.Op.operands (Array.of_list (currents s stored)))
          ~results
          ~regions:[| Op.region ~args:(Array.append r.Op.rargs (Array.of_list args)) body |]
          ~attrs:op.Op.attrs ?loc:op.Op.loc
  in
  let n0 = Array.length op.Op.results in
  let s =
    List.fold_left
      (fun (s, k) id -> (IM.add id { cur = Some results.(n0 + k); dirty = true } s, k + 1))
      (s, 0) stored
    |> fst
  in
  (List.rev_append !pre [ replacement ], s)

let promote (m : Op.op) : int * int =
  let p =
    { cands = find_candidates m
    ; summaries = Hashtbl.create 64
    ; psubst = Clone.create_subst ()
    ; promoted = 0
    ; carried = 0
    }
  in
  if Hashtbl.length p.cands > 0 then
    (match promote_ops p IM.empty [ m ] with [ _ ], _ -> () | _ -> ());
  (p.promoted, p.carried)


(* --- entry point --- *)

type report =
  { promoted_loads : int
  ; carried_values : int
  ; forwarded_loads : int
  ; removed_stores : int
  ; removed_allocas : int
  }

let run (m : Op.op) : report =
  let promoted_loads, carried_values = promote m in
  let info = Info.build m in
  (* Precompute every barrier's interval sets on the unmodified tree. *)
  let barrier_sets = Hashtbl.create 16 in
  Op.iter
    (fun (o : Op.op) ->
      if o.Op.kind = Op.Barrier then begin
        match Info.nearest_block_par info o with
        | Some par ->
          let ctx = Effects.make_ctx ~modul:m ~par info in
          Hashtbl.replace barrier_sets o.Op.oid
            (Effects.barrier_intervals ctx ~par o)
        | None -> ()
      end)
    m;
  let st =
    { subst = Clone.create_subst ()
    ; dead = Hashtbl.create 16
    ; info
    ; modul = m
    ; barrier_sets
    ; forwards = 0
    ; dead_stores = 0
    }
  in
  let entries = ref [] in
  (match walk_region st ~par:None entries [ m ] with [ _ ] -> () | _ -> ());
  (* delete dead stores *)
  let rec clean (op : Op.op) : Op.op list =
    Array.iter
      (fun (r : Op.region) -> r.body <- List.concat_map clean r.body)
      op.regions;
    if Hashtbl.mem st.dead op.oid then [] else [ op ]
  in
  (match clean m with [ _ ] -> () | _ -> ());
  let removed_allocas = dead_allocas m in
  { promoted_loads
  ; carried_values
  ; forwarded_loads = st.forwards
  ; removed_stores = st.dead_stores
  ; removed_allocas
  }
