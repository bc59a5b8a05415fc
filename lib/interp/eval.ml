(* The GPU-semantics interpreter: ground truth for every transformation.

   Parallel loops over blocks run block-by-block; the threads of a block
   run as cooperative fibers (OCaml 5 effect handlers) that all stop at
   each [polygeist.barrier] before any proceeds — exactly CUDA's
   __syncthreads contract, at barrier granularity.  OpenMP constructs are
   interpreted with a configurable team size: every team thread executes
   the whole [omp.parallel] region, worksharing loops execute static
   contiguous chunks, and [omp.barrier] synchronizes the team.

   Divergent barriers (not all threads reaching the same barrier) raise,
   which turns CUDA undefined behaviour into a test failure.

   Environments are dense slots.  A run resolves each function it calls
   once, at its first call, into a tree that mirrors the function's ops:
   every SSA definition gets a slot in an activation array, and every
   operand the slot of the definition in scope at its op.  A definition
   is in scope after it in its region and in the regions nested there,
   so a region's slots are free again after it and the ops that follow
   reuse them.  An operand with no definition in scope fails with
   "unbound SSA value" when its op runs.  Loops, ifs and barrier-free
   parallel loops rebind their slots in place; a fiber (a GPU thread of a
   barrier block, an OpenMP team thread) runs on its own copy of the
   activation.  The resolutions live in the run's [state]: passes mutate
   the IR in place and executor domains interpret concurrently, so none
   outlives its run. *)

open Ir

exception Return_exc of Mem.rv option

type _ Effect.t += Sync : unit Effect.t

(* Execution statistics, also used as a sanity check against the static
   cost model. *)
type stats =
  { mutable ops : int
  ; mutable loads : int
  ; mutable stores : int
  ; mutable flops : int
  ; mutable barriers : int
  }

let new_stats () = { ops = 0; loads = 0; stores = 0; flops = 0; barriers = 0 }

(* --- resolution: SSA values to activation slots --- *)

(* An op with the activation slot of each operand ([unbound] when no
   definition is in scope) and of each result. *)
type node =
  { op : Op.op
  ; args : int array
  ; res : int array
  ; regions : block array
  ; fibers : bool (* a thread loop holding a barrier: one fiber a thread *)
  }

and block =
  { params : int array (* the slots of the region's arguments *)
  ; body : node list
  ; tail : node option (* the trailing [scf.yield] *)
  }

type func =
  { fop : Op.op
  ; size : int (* activation length *)
  ; entry : block
  }

let unbound = -1

(* Slots are handed out stack-wise from [depth]; [size] keeps the
   deepest.  An op's results take their slots before its regions, so an
   [scf.if] copies its yields into slots no region value occupies. *)
let rec resolve_op size scope depth (op : Op.op) : node =
  let slot (v : Value.t) =
    match Value.Map.find_opt v scope with Some s -> s | None -> unbound
  in
  let inner = depth + Array.length op.results in
  size := max !size inner;
  { op
  ; args = Array.map slot op.operands
  ; res = Array.init (Array.length op.results) (fun i -> depth + i)
  ; regions = Array.map (resolve_block size scope inner) op.regions
  ; fibers =
      (match op.kind with
       | Op.Parallel Op.Block ->
         Array.length op.regions > 0
         && Op.contains_barrier_region op.regions.(0)
       | _ -> false)
  }

and resolve_block size scope depth (r : Op.region) : block =
  let scope = ref scope and depth = ref depth in
  let define (v : Value.t) s = scope := Value.Map.add v s !scope in
  let params = Array.mapi (fun i _ -> !depth + i) r.rargs in
  Array.iter2 define r.rargs params;
  depth := !depth + Array.length params;
  size := max !size !depth;
  let rev_body =
    List.fold_left
      (fun acc (op : Op.op) ->
        let n = resolve_op size !scope !depth op in
        Array.iter2 define op.results n.res;
        depth := !depth + Array.length n.res;
        n :: acc)
      [] r.body
  in
  let tail =
    match rev_body with
    | ({ op = { Op.kind = Op.Yield; _ }; _ } as y) :: _ -> Some y
    | _ -> None
  in
  { params; body = List.rev rev_body; tail }

let resolve_func (f : Op.op) : func =
  let size = ref 0 in
  let entry = resolve_block size Value.Map.empty 0 f.regions.(0) in
  { fop = f; size = !size; entry }

type state =
  { modul : Op.op
  ; stats : stats
  ; team_size : int (* interpreted OpenMP team size *)
  ; mutable team_rank : int (* rank of the currently-executing team thread *)
  ; mutable in_team : bool
  ; mutable fuel : int (* remaining op budget; negative = unbounded *)
  ; funcs : (string, func) Hashtbl.t (* this run's resolutions *)
  }

let func_named st name =
  match Hashtbl.find_opt st.funcs name with
  | Some _ as f -> f
  | None ->
    Option.map
      (fun f ->
        let r = resolve_func f in
        Hashtbl.add st.funcs name r;
        r)
      (Op.find_func st.modul name)

(* The value of operand [i] of [n]. *)
let get (act : Mem.rv array) (n : node) i =
  let s = n.args.(i) in
  if s = unbound then
    Mem.fail "unbound SSA value %s" (Value.to_string n.op.operands.(i))
  else act.(s)

(* Bind the op's one result; [Op.result] fails on any other count. *)
let set (act : Mem.rv array) (n : node) v =
  match n.res with
  | [| s |] -> act.(s) <- v
  | _ -> ignore (Op.result n.op)

(* Operands [first..] of [n], as integer indices. *)
let indices act (n : node) first =
  let ix = Array.make (Array.length n.args - first) 0 in
  for i = 0 to Array.length ix - 1 do
    ix.(i) <- Mem.as_int (get act n (first + i))
  done;
  ix

(* What the block's trailing [scf.yield] hands on. *)
let yielded act (b : block) =
  match b.tail with
  | Some y -> Array.init (Array.length y.args) (get act y)
  | None -> [||]

(* The one static worksharing partition, shared with the parallel
   runtime ([Runtime.Schedule] delegates here): a balanced contiguous
   split where the first [n mod size] ranks take one extra iteration,
   so chunk sizes differ by at most 1 and no rank is ever empty while
   another holds two chunks' worth.  The differential tests compare
   bitwise checksums, and for the (racy but tolerated) benchmarks whose
   result depends on the partition, the runtime at [size] domains must
   reproduce the interpreter at [team_size = size] — which is why this
   lives here and not in two places. *)
let static_chunk ~rank ~size ~n =
  if size <= 0 then invalid_arg "static_chunk: size must be positive";
  let base = n / size and rem = n mod size in
  let lo = (rank * base) + min rank rem in
  let len = base + (if rank < rem then 1 else 0) in
  (lo, lo + len)

(* The iteration space of a parallel op.  Point [k] is decoded from its
   linear index, dimension 0 fastest. *)
type space =
  { lo : int array
  ; step : int array
  ; trips : int array
  ; points : int
  }

let iteration_space act (n : node) : space =
  let d = Op.par_dims n.op in
  let lo = Array.init d (fun i -> Mem.as_int (get act n i)) in
  let hi = Array.init d (fun i -> Mem.as_int (get act n (d + i))) in
  let step = Array.init d (fun i -> Mem.as_int (get act n ((2 * d) + i))) in
  Mem.check_par_steps step;
  let trips =
    Array.init d (fun i ->
        if hi.(i) <= lo.(i) then 0
        else (hi.(i) - lo.(i) + step.(i) - 1) / step.(i))
  in
  { lo; step; trips; points = Array.fold_left ( * ) 1 trips }

let bind_point (act : Mem.rv array) (ivs : int array) sp k =
  let k = ref k in
  for d = 0 to Array.length ivs - 1 do
    let t = sp.trips.(d) in
    act.(ivs.(d)) <- Mem.Int (sp.lo.(d) + (!k mod t * sp.step.(d)));
    k := !k / t
  done

(* --- fiber scheduling for barrier semantics --- *)

type fiber_status =
  | Finished
  | Suspended of (unit, fiber_status) Effect.Deep.continuation

let start_fiber (f : unit -> unit) : fiber_status =
  Effect.Deep.match_with f ()
    { retc = (fun () -> Finished)
    ; exnc = raise
    ; effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Sync ->
            Some
              (fun (k : (a, fiber_status) Effect.Deep.continuation) ->
                Suspended k)
          | _ -> None)
    }

(* Run a set of logical threads to completion, synchronizing them at every
   Sync effect.  Threads run in index order within each barrier interval
   (deterministic).  [before_slice i] runs before thread [i] starts or
   resumes — used to re-establish per-thread interpreter state such as the
   OpenMP team rank. *)
let run_threads ?(before_slice = fun (_ : int) -> ()) (thunks : (unit -> unit) array) =
  let statuses =
    Array.mapi
      (fun i f ->
        before_slice i;
        start_fiber f)
      thunks
  in
  let all_done a = Array.for_all (fun s -> s = Finished) a in
  let current = ref statuses in
  while not (all_done !current) do
    let finished = Array.exists (fun s -> s = Finished) !current in
    if finished then
      Mem.fail
        "barrier divergence: some threads finished while others wait at a \
         barrier";
    current :=
      Array.mapi
        (fun i s ->
          match s with
          | Suspended k ->
            before_slice i;
            Effect.Deep.continue k ()
          | Finished -> Finished)
        !current
  done

(* --- the interpreter --- *)

let rec exec_body (st : state) act : node list -> unit = function
  | [] -> ()
  | n :: rest ->
    exec_op st act n;
    exec_body st act rest

and exec_op (st : state) (act : Mem.rv array) (n : node) : unit =
  st.stats.ops <- st.stats.ops + 1;
  if st.fuel >= 0 then begin
    if st.fuel = 0 then
      Mem.fail "interpreter fuel exhausted after %d ops" st.stats.ops;
    st.fuel <- st.fuel - 1
  end;
  let op = n.op in
  match op.kind with
  | Op.Module | Op.Func _ -> Mem.fail "cannot execute module/func as a statement"
  | Op.Yield -> ()
  | Op.Condition -> Mem.fail "scf.condition outside while handling"
  (* The frequent scalar ops call [Scalar] on their operands: building
     [Scalar.eval]'s operand array for each slowed the suite's
     interpretation by ~15%. *)
  | Op.Constant c -> set act n (Scalar.const c)
  | Op.Binop kind ->
    let is_float = Scalar.is_float_value op.operands.(0) in
    if is_float then st.stats.flops <- st.stats.flops + 1;
    set act n (Scalar.binop kind ~is_float (get act n 0) (get act n 1))
  | Op.Cmp pred ->
    set act n
      (Scalar.cmp pred
         ~is_float:(Scalar.is_float_value op.operands.(0))
         (get act n 0) (get act n 1))
  | Op.Cast d -> set act n (Scalar.cast d (get act n 0))
  | Op.Select | Op.Math _ ->
    (match op.kind with
     | Op.Math _ -> st.stats.flops <- st.stats.flops + 1
     | _ -> ());
    set act n (Scalar.eval op (Array.init (Array.length n.args) (get act n)))
  | Op.Alloc | Op.Alloca -> begin
    match (Op.result op).typ with
    | Types.Memref { elem; shape; _ } ->
      let dyn = ref (List.init (Array.length n.args) (get act n)) in
      let dims =
        List.map
          (fun d ->
            match d with
            | Some n -> n
            | None -> begin
              match !dyn with
              | v :: rest ->
                dyn := rest;
                Mem.as_int v
              | [] -> Mem.fail "alloc: missing dynamic size"
            end)
          shape
      in
      set act n (Mem.Buf (Mem.alloc_buffer elem (Array.of_list dims)))
    | Types.Scalar _ -> Mem.fail "alloc of non-memref"
  end
  | Op.Dealloc -> ()
  | Op.Load ->
    st.stats.loads <- st.stats.loads + 1;
    let b = Mem.as_buf (get act n 0) in
    set act n (Mem.load b (indices act n 1))
  | Op.Store ->
    st.stats.stores <- st.stats.stores + 1;
    let v = get act n 0 in
    let b = Mem.as_buf (get act n 1) in
    Mem.store b (indices act n 2) v
  | Op.Copy ->
    let src = Mem.as_buf (get act n 0) in
    let dst = Mem.as_buf (get act n 1) in
    Mem.copy ~src ~dst
  | Op.Dim i ->
    let b = Mem.as_buf (get act n 0) in
    set act n (Mem.Int b.dims.(i))
  | Op.For ->
    let lo = Mem.as_int (get act n 0) in
    let hi = Mem.as_int (get act n 1) in
    let step = Mem.as_int (get act n 2) in
    if step <= 0 then Mem.fail "scf.for: non-positive step %d" step;
    let body = n.regions.(0) in
    let iv = body.params.(0) in
    (* The iter_args' values: the inits, then what each iteration
       yields, read before the next one binds anything (so
       [scf.yield %b, %a] swaps). *)
    let carried = Array.length n.res > 0 in
    let cur =
      ref
        (if carried then
           Array.init (Array.length n.args - 3) (fun k -> get act n (k + 3))
         else [||])
    in
    let i = ref lo in
    while !i < hi do
      act.(iv) <- Mem.Int !i;
      if carried then
        Array.iteri (fun k v -> act.(body.params.(k + 1)) <- v) !cur;
      exec_body st act body.body;
      if carried then cur := yielded act body;
      i := !i + step
    done;
    if carried then Array.iteri (fun k r -> act.(r) <- !cur.(k)) n.res
  | Op.While ->
    let rec run_cond = function
      | [] -> Mem.fail "while cond region missing scf.condition"
      | [ ({ op = { Op.kind = Op.Condition; _ }; _ } as c) ] ->
        Mem.as_int (get act c 0) <> 0
      | o :: rest ->
        exec_op st act o;
        run_cond rest
    in
    while run_cond n.regions.(0).body do
      exec_body st act n.regions.(1).body
    done
  | Op.If ->
    let c = Mem.as_int (get act n 0) in
    let b = if c <> 0 then n.regions.(0) else n.regions.(1) in
    exec_body st act b.body;
    if Array.length n.res > 0 then
      Array.iter2 (fun r v -> act.(r) <- v) n.res (yielded act b)
  | Op.Parallel _ -> exec_parallel st act n
  | Op.Barrier ->
    st.stats.barriers <- st.stats.barriers + 1;
    Effect.perform Sync
  | Op.Call name -> begin
    let callee =
      match func_named st name with
      | Some f -> f
      | None -> Mem.fail "call to unknown function @%s" name
    in
    let args = Array.init (Array.length n.args) (get act n) in
    match call st callee args with
    | Some rv when Array.length n.res = 1 -> set act n rv
    | Some _ -> ()
    | None ->
      if Array.length n.res = 1 then
        Mem.fail "function @%s returned no value" name
  end
  | Op.Return ->
    let v =
      if Array.length n.args = 1 then Some (get act n 0) else None
    in
    raise (Return_exc v)
  | Op.OmpParallel -> exec_omp_parallel st act n
  | Op.OmpWsloop -> exec_wsloop st act n
  | Op.OmpBarrier ->
    st.stats.barriers <- st.stats.barriers + 1;
    if st.in_team then Effect.perform Sync

and exec_parallel st act (n : node) : unit =
  let sp = iteration_space act n in
  let body = n.regions.(0) in
  if n.fibers then begin
    (* Cooperative fibers synchronizing at barriers.  GPU threads are
       NOT an OpenMP team: any worksharing loop nested inside this
       region must be executed in full by every thread, so the team
       flag of an enclosing [omp.parallel] is masked for the duration
       (and re-masked at every slice, in case a nested omp region
       toggled it before a barrier suspension). *)
    let was_team = st.in_team in
    let was_rank = st.team_rank in
    let thunks =
      Array.init sp.points (fun k () ->
          let act = Array.copy act in
          bind_point act body.params sp k;
          exec_body st act body.body)
    in
    Fun.protect
      ~finally:(fun () ->
        st.in_team <- was_team;
        st.team_rank <- was_rank)
      (fun () ->
        run_threads ~before_slice:(fun _ -> st.in_team <- false) thunks)
  end
  else
    (* No synchronization inside: iterations run in order. *)
    for k = 0 to sp.points - 1 do
      bind_point act body.params sp k;
      exec_body st act body.body
    done

and exec_omp_parallel st act (n : node) : unit =
  (* The team size comes uniformly from [?team_size] (default 4): it
     sets both how many team threads execute the region AND the
     worksharing chunk denominator in [exec_wsloop], so the two can
     never disagree. *)
  let t = st.team_size in
  let was_team = st.in_team in
  let was_rank = st.team_rank in
  st.in_team <- true;
  let thunks =
    Array.init t (fun _rank () ->
        exec_body st (Array.copy act) n.regions.(0).body)
  in
  (* The scheduler re-establishes the executing thread's rank before every
     slice, so worksharing loops after a barrier still read the right
     rank.  The restore is exception-safe: a runtime error inside the
     region must not leave the interpreter believing it is still in a
     team. *)
  Fun.protect
    ~finally:(fun () ->
      st.in_team <- was_team;
      st.team_rank <- was_rank)
    (fun () ->
      run_threads
        ~before_slice:(fun rank ->
          st.in_team <- true;
          st.team_rank <- rank)
        thunks)

and exec_wsloop st act (n : node) : unit =
  let sp = iteration_space act n in
  let body = n.regions.(0) in
  let lo, hi =
    if st.in_team then
      (* balanced static contiguous chunking across the team *)
      static_chunk ~rank:st.team_rank ~size:st.team_size ~n:sp.points
    else (0, sp.points)
  in
  for k = lo to hi - 1 do
    bind_point act body.params sp k;
    exec_body st act body.body
  done

and call st (f : func) (args : Mem.rv array) : Mem.rv option =
  let act = Array.make f.size (Mem.Int 0) in
  let params = f.entry.params in
  if Array.length params <> Array.length args then
    Mem.fail "@%s: arity mismatch" (Op.func_name f.fop);
  Array.iteri (fun i p -> act.(p) <- args.(i)) params;
  match exec_body st act f.entry.body with
  | () -> None
  | exception Return_exc v -> v

(* --- public API --- *)

let create ?(team_size = 4) ?fuel (modul : Op.op) : state =
  { modul
  ; stats = new_stats ()
  ; team_size
  ; team_rank = 0
  ; in_team = false
  ; fuel = (match fuel with Some n when n >= 0 -> n | _ -> -1)
  ; funcs = Hashtbl.create 8
  }

let run ?(team_size = 4) ?fuel (modul : Op.op) (name : string)
    (args : Mem.rv list) : Mem.rv option * stats =
  let st = create ~team_size ?fuel modul in
  let f =
    match func_named st name with
    | Some f -> f
    | None -> Mem.fail "no function @%s in module" name
  in
  let r = call st f (Array.of_list args) in
  (r, st.stats)
