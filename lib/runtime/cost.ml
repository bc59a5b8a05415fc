(* Static cost evaluation: a partial evaluator that walks the IR with the
   integer arguments of a run and produces a simulated execution time on a
   given machine model with a given thread count.

   Work is tracked as a triple:
   - [comp]   distributable compute seconds (arithmetic, scalar ops)
   - [bytes]  memory traffic (shared-bandwidth resource)
   - [fixed]  already-realized wall-clock seconds (overheads, nested
              regions that have been assigned their own thread budget)

   A worksharing loop realizes its body's work:

       time = max( trips * (comp + fixed) / min(T, trips),
                   trips * bytes / bandwidth )            + chunk overhead

   i.e. compute scales with threads until memory bandwidth saturates —
   the mechanism behind every scaling curve in the paper's evaluation.

   Scalar integer values are partially evaluated so loop trip counts
   derived from the run's arguments are exact; data-dependent counts fall
   back to annotations ([trip] attribute) or defaults. *)

open Ir

type sval =
  | Ki of int
  | Kf of float
  | Unk

type work =
  { comp : float (* seconds, single-thread *)
  ; bytes : float (* global-memory traffic (shared-bandwidth resource) *)
  ; lbytes : float (* cache-resident traffic: Shared/Local memrefs *)
  ; fixed : float (* seconds that no longer scale with threads *)
  }

let zero = { comp = 0.0; bytes = 0.0; lbytes = 0.0; fixed = 0.0 }
let ( ++ ) a b =
  { comp = a.comp +. b.comp
  ; bytes = a.bytes +. b.bytes
  ; lbytes = a.lbytes +. b.lbytes
  ; fixed = a.fixed +. b.fixed
  }

let scale k a =
  { comp = k *. a.comp
  ; bytes = k *. a.bytes
  ; lbytes = k *. a.lbytes
  ; fixed = k *. a.fixed
  }

type team_ctx =
  { tsize : int
  ; tnested : bool
  }

type ctx =
  { machine : Machine.t
  ; threads : int (* threads requested for the run *)
  ; modul : Op.op
  ; env : sval Value.Tbl.t
  ; iv_trips : int Value.Tbl.t (* known trip count of the loop an iv drives *)
  ; means : int Value.Tbl.t
    (* mean value of a serial-loop iv over its trips, carried through
       integer arithmetic: only trip counts read it *)
  ; mutable unknown_trips : int (* how often a default trip was used *)
  ; default_trip : int
  }

let ns = 1e-9

let lookup ctx (v : Value.t) : sval =
  match Value.Tbl.find_opt ctx.env v with Some s -> s | None -> Unk

let bind ctx v s = Value.Tbl.replace ctx.env v s

let as_int = function Ki n -> Some n | Kf _ | Unk -> None

(* The exact value when known, else the mean over the enclosing serial
   loops' iterations (a triangular or wavefront nest). *)
let mean_int ctx (v : Value.t) =
  match lookup ctx v with
  | Ki n -> Some n
  | Kf _ | Unk -> Value.Tbl.find_opt ctx.means v

(* Probability that a condition holds, for costing an if-branch.  Exact
   when the condition folded to a constant; the tid==0 / iv==const guard
   costs 1/trip; bounded comparisons use a uniform-iv estimate; everything
   else is 0.5. *)
let cond_fraction ctx (cond : Value.t) : float =
  match lookup ctx cond with
  | Ki 0 -> 0.0
  | Ki _ -> 1.0
  | Kf _ | Unk -> begin
    (* look through the defining cmp *)
    let def =
      let found = ref None in
      Op.iter
        (fun o ->
          if Array.exists (Value.equal cond) o.Op.results then found := Some o)
        ctx.modul;
      !found
    in
    match def with
    | Some { Op.kind = Op.Cmp pred; operands; _ } -> begin
      let trip_of v = Value.Tbl.find_opt ctx.iv_trips v in
      let known v = as_int (lookup ctx v) in
      match pred, trip_of operands.(0), known operands.(1) with
      | Op.Eq, Some t, Some _ -> 1.0 /. float_of_int (max 1 t)
      | Op.Lt, Some t, Some k ->
        Float.min 1.0 (Float.max 0.0 (float_of_int k /. float_of_int (max 1 t)))
      | _ -> begin
        match pred, known operands.(0), trip_of operands.(1) with
        | Op.Eq, Some _, Some t -> 1.0 /. float_of_int (max 1 t)
        | _ -> 0.5
      end
    end
    | _ -> 0.5
  end

(* (bytes, is_cache_resident) of one access through this memref *)
let bytes_of_access (v : Value.t) =
  match v.Value.typ with
  | Types.Memref { elem; space; _ } ->
    ( float_of_int (Types.dtype_bytes elem)
    , match space with
      | Types.Shared | Types.Local -> true
      | Types.Global -> false )
  | Types.Scalar d -> (float_of_int (Types.dtype_bytes d), false)

(* Partial evaluation of scalar ops: {!Interp.Scalar.eval} when every
   operand is known (a trap leaves the result unknown); a select with a
   known condition is its chosen operand; integer arithmetic on unknown
   operands carries their means. *)
let eval_scalar ctx (op : Op.op) : unit =
  let rv = function
    | Ki n -> Some (Interp.Mem.Int n)
    | Kf f -> Some (Interp.Mem.Flt f)
    | Unk -> None
  in
  match op.Op.kind with
  | Op.Select -> begin
    match lookup ctx op.Op.operands.(0) with
    | Ki 0 -> bind ctx (Op.result op) (lookup ctx op.Op.operands.(2))
    | Ki _ -> bind ctx (Op.result op) (lookup ctx op.Op.operands.(1))
    | _ -> bind ctx (Op.result op) Unk
  end
  | Op.Constant _ | Op.Binop _ | Op.Cmp _ | Op.Cast _ -> begin
    let r = Op.result op in
    let args = Array.map (fun v -> rv (lookup ctx v)) op.Op.operands in
    if Array.for_all Option.is_some args then
      bind ctx r
        (match Interp.Scalar.eval op (Array.map Option.get args) with
         | Interp.Mem.Int n -> Ki n
         | Interp.Mem.Flt f -> Kf f
         | Interp.Mem.Buf _ -> Unk
         | exception Interp.Mem.Runtime_error _ -> Unk)
    else begin
      bind ctx r Unk;
      match op.Op.kind with
      | Op.Binop b -> begin
        let mean = Value.Tbl.replace ctx.means r in
        let o = op.Op.operands in
        match b, mean_int ctx o.(0), mean_int ctx o.(1) with
        | Op.Add, Some x, Some y -> mean (x + y)
        | Op.Sub, Some x, Some y -> mean (x - y)
        | Op.Mul, Some x, Some y -> mean (x * y)
        | Op.Div, Some x, Some y when y <> 0 -> mean (x / y)
        | _ -> ()
      end
      | _ -> ()
    end
  end
  | _ -> Array.iter (fun r -> bind ctx r Unk) op.Op.results

let trip_count ctx ~(lo : Value.t) ~(hi : Value.t) ~(step : Value.t)
    (op : Op.op) : int =
  match mean_int ctx lo, mean_int ctx hi, mean_int ctx step with
  | Some l, Some h, Some s when s > 0 -> max 0 ((h - l + s - 1) / s)
  | _ -> begin
    match Op.attr_int op "trip" with
    | Some t -> t
    | None ->
      ctx.unknown_trips <- ctx.unknown_trips + 1;
      ctx.default_trip
  end

(* team threads currently available given how many are already busy *)
let nested_threads ~(total : int) ~(outer_busy : int) =
  max 1 (total / max 1 outer_busy)

let rec cost_ops ctx ~(team : team_ctx option) ~(depth : int)
    (ops : Op.op list) : work =
  List.fold_left (fun acc op -> acc ++ cost_op ctx ~team ~depth op) zero ops

and cost_op ctx ~(team : team_ctx option) ~(depth : int) (op : Op.op) : work =
  let m = ctx.machine in
  let flop = { zero with comp = m.flop_ns *. ns } in
  (* integer/address arithmetic overlaps with other work on an
     out-of-order core: charge a third of an issue slot *)
  let iflop = { zero with comp = m.flop_ns *. ns /. 3.0 } in
  match op.Op.kind with
  | Op.Constant _ | Op.Yield | Op.Condition ->
    eval_scalar ctx op;
    zero
  | Op.Binop _ | Op.Cmp _ | Op.Select | Op.Cast _ ->
    eval_scalar ctx op;
    let is_int =
      match (Op.result op).Value.typ with
      | Types.Scalar d -> Types.is_int_dtype d
      | Types.Memref _ -> false
    in
    if is_int then iflop else flop
  | Op.Math _ -> { zero with comp = 4.0 *. m.flop_ns *. ns }
  | Op.Dim _ ->
    bind ctx (Op.result op) Unk;
    zero
  | Op.Load ->
    bind ctx (Op.result op) Unk;
    let b, local = bytes_of_access op.Op.operands.(0) in
    if local then { zero with lbytes = b; comp = m.flop_ns *. ns /. 2.0 }
    else { zero with bytes = b; comp = m.flop_ns *. ns /. 2.0 }
  | Op.Store ->
    let b, local = bytes_of_access op.Op.operands.(1) in
    if local then { zero with lbytes = b; comp = m.flop_ns *. ns /. 2.0 }
    else { zero with bytes = b; comp = m.flop_ns *. ns /. 2.0 }
  | Op.Copy -> begin
    (* whole-buffer traffic when the size is known *)
    match op.Op.operands.(0).Value.typ with
    | Types.Memref { elem; shape; _ } ->
      let sz =
        List.fold_left
          (fun acc d -> match d with Some n -> acc * n | None -> acc)
          1 shape
      in
      { zero with
        bytes = 2.0 *. float_of_int (sz * Types.dtype_bytes elem)
      }
    | _ -> zero
  end
  | Op.Alloc ->
    bind ctx (Op.result op) Unk;
    let local =
      match (Op.result op).Value.typ with
      | Types.Memref { space = Types.Local | Types.Shared; _ } -> true
      | _ -> false
    in
    (* thread-/block-local slabs (fission caches, expanded allocas) are
       stack-like: a pointer bump, not a malloc *)
    if local then { zero with comp = m.flop_ns *. ns }
    else { zero with fixed = m.alloc_ns *. ns }
  | Op.Alloca ->
    (* stack allocation: a pointer bump *)
    bind ctx (Op.result op) Unk;
    { zero with comp = m.flop_ns *. ns }
  | Op.Dealloc -> { zero with fixed = m.alloc_ns *. ns /. 2.0 }
  | Op.If ->
    let f = cond_fraction ctx op.Op.operands.(0) in
    scale f (cost_ops ctx ~team ~depth op.Op.regions.(0).body)
    ++ scale (1.0 -. f) (cost_ops ctx ~team ~depth op.Op.regions.(1).body)
  | Op.For ->
    let trips =
      trip_count ctx ~lo:(Op.for_lo op) ~hi:(Op.for_hi op)
        ~step:(Op.for_step op) op
    in
    Value.Tbl.replace ctx.iv_trips (Op.for_iv op) trips;
    bind ctx (Op.for_iv op) Unk;
    (match as_int (lookup ctx (Op.for_lo op)), as_int (lookup ctx (Op.for_step op)) with
     | Some lo, Some step when trips > 0 ->
       Value.Tbl.replace ctx.means (Op.for_iv op) (lo + (step * (trips - 1) / 2))
     | _ -> ());
    scale (float_of_int trips) (cost_ops ctx ~team ~depth op.Op.regions.(0).body)
  | Op.While ->
    let trips =
      match Op.attr_int op "trip" with
      | Some t -> t
      | None ->
        ctx.unknown_trips <- ctx.unknown_trips + 1;
        ctx.default_trip
    in
    scale (float_of_int trips)
      (cost_ops ctx ~team ~depth op.Op.regions.(0).body
       ++ cost_ops ctx ~team ~depth op.Op.regions.(1).body)
  | Op.Return -> zero
  | Op.Call name -> begin
    match Op.find_func ctx.modul name with
    | None -> zero
    | Some f ->
      Array.iter (fun a -> bind ctx a Unk) f.Op.regions.(0).rargs;
      (* propagate known scalar arguments *)
      Array.iteri
        (fun i (p : Value.t) ->
          if i < Array.length op.Op.operands then
            bind ctx p (lookup ctx op.Op.operands.(i)))
        f.Op.regions.(0).rargs;
      Array.iter (fun r -> bind ctx r Unk) op.Op.results;
      if depth > 12 then zero
      else cost_ops ctx ~team ~depth:(depth + 1) f.Op.regions.(0).body
  end
  | Op.Barrier ->
    { zero with fixed = m.barrier_ns *. ns }
  | Op.OmpBarrier ->
    (* tree barrier: log2(T) rounds; a single-thread team only pays the
       check that it is alone *)
    let t = match team with Some t -> t.tsize | None -> 1 in
    let rounds = Float.max 0.1 (log (float_of_int t) /. log 2.0) in
    { zero with fixed = m.barrier_ns *. ns *. rounds }
  | Op.OmpParallel -> begin
    let nested = team <> None in
    let t =
      if nested then
        nested_threads ~total:ctx.threads ~outer_busy:ctx.threads
      else ctx.threads
    in
    let spawn = if nested then m.nested_spawn_ns else m.spawn_ns in
    let body =
      cost_ops ctx
        ~team:(Some { tsize = t; tnested = nested })
        ~depth op.Op.regions.(0).body
    in
    (* replicated (non-worksharing) compute runs concurrently on every
       thread: wall time is its single-thread time; memory overlaps with
       compute as on the out-of-order core *)
    { zero with
      fixed = (spawn *. ns) +. body.fixed
              +. Float.max body.comp
                   ((body.bytes *. m.mem_ns_per_byte *. ns)
                    +. (body.lbytes *. m.cache_ns_per_byte *. ns))
    }
  end
  | Op.OmpWsloop ->
    let n = Op.par_dims op in
    let trips = ref 1 in
    for i = 0 to n - 1 do
      let t =
        trip_count ctx ~lo:(Op.par_lo op i) ~hi:(Op.par_hi op i)
          ~step:(Op.par_step op i) op
      in
      Value.Tbl.replace ctx.iv_trips op.Op.regions.(0).rargs.(i) t;
      bind ctx op.Op.regions.(0).rargs.(i) Unk;
      trips := !trips * t
    done;
    let body = cost_ops ctx ~team ~depth op.Op.regions.(0).body in
    let tsize, tnested =
      match team with Some t -> (t.tsize, t.tnested) | None -> (1, false)
    in
    realize ctx ~tsize ~nested:tnested ~trips:!trips body
  | Op.Parallel _ ->
    (* GPU-semantics parallel loop costed as spawn + worksharing (used
       for reference curves before lowering) *)
    let n = Op.par_dims op in
    let trips = ref 1 in
    for i = 0 to n - 1 do
      let t =
        trip_count ctx ~lo:(Op.par_lo op i) ~hi:(Op.par_hi op i)
          ~step:(Op.par_step op i) op
      in
      Value.Tbl.replace ctx.iv_trips op.Op.regions.(0).rargs.(i) t;
      bind ctx op.Op.regions.(0).rargs.(i) Unk;
      trips := !trips * t
    done;
    let body =
      cost_ops ctx
        ~team:(Some { tsize = ctx.threads; tnested = false })
        ~depth op.Op.regions.(0).body
    in
    let w = realize ctx ~tsize:ctx.threads ~nested:false ~trips:!trips body in
    { w with fixed = w.fixed +. (ctx.machine.spawn_ns *. ns) }
  | Op.Module | Op.Func _ ->
    cost_ops ctx ~team ~depth op.Op.regions.(0).body

(* Turn per-iteration work into wall time across the team. *)
and realize ctx ~(tsize : int) ~(nested : bool) ~(trips : int)
    (per_iter : work) : work =
  let m = ctx.machine in
  let eff = max 1 (min tsize trips) in
  let ftrips = float_of_int trips in
  let share_mult = if nested then m.false_sharing_mult else 1.0 in
  let cache_time =
    ftrips *. per_iter.lbytes *. m.cache_ns_per_byte *. share_mult *. ns
    /. float_of_int eff
  in
  let comp_time =
    (ftrips *. (per_iter.comp +. per_iter.fixed) /. float_of_int eff)
    +. cache_time
  in
  let bw = m.bandwidth_gbs *. 1e9 in
  let bytes_time = ftrips *. per_iter.bytes *. share_mult /. bw in
  (* single-thread byte cost floor: even unsaturated, memory is not free *)
  let bytes_floor =
    ftrips *. per_iter.bytes *. m.mem_ns_per_byte *. ns /. float_of_int eff
  in
  { comp = 0.0
  ; bytes = 0.0
  ; lbytes = 0.0
  ; fixed = Float.max comp_time (Float.max bytes_time bytes_floor)
            +. (m.chunk_ns *. ns)
  }

type result =
  { seconds : float
  ; unknown_trips : int
  }

(* Cost one function of [m] with concrete scalar arguments ([None] for
   buffers/unknowns), on [machine] with [threads]. *)
let of_func ?(default_trip = 16) (machine : Machine.t) ~(threads : int)
    (modul : Op.op) (fname : string) (args : sval list) : result =
  let f =
    match Op.find_func modul fname with
    | Some f -> f
    | None -> invalid_arg ("Cost.of_func: no function " ^ fname)
  in
  let ctx =
    { machine
    ; threads = min threads machine.cores
    ; modul
    ; env = Value.Tbl.create 256
    ; iv_trips = Value.Tbl.create 64
    ; means = Value.Tbl.create 64
    ; unknown_trips = 0
    ; default_trip
    }
  in
  List.iteri
    (fun i s ->
      if i < Array.length f.Op.regions.(0).rargs then
        bind ctx f.Op.regions.(0).rargs.(i) s)
    args;
  let w = cost_ops ctx ~team:None ~depth:0 f.Op.regions.(0).body in
  (* any leftover unrealized work runs on one thread *)
  { seconds =
      w.fixed +. w.comp
      +. (w.bytes *. machine.mem_ns_per_byte *. ns)
      +. (w.lbytes *. machine.cache_ns_per_byte *. ns)
  ; unknown_trips = ctx.unknown_trips
  }
