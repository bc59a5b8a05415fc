(* The GPU-semantics interpreter: ground truth for every transformation.

   Parallel loops over blocks run block-by-block; the threads of a block
   run as cooperative fibers (OCaml 5 effect handlers) that all stop at
   each [polygeist.barrier] before any proceeds — exactly CUDA's
   __syncthreads contract, at barrier granularity.  OpenMP constructs are
   interpreted with a configurable team size: every team thread executes
   the whole [omp.parallel] region, worksharing loops execute static
   contiguous chunks, and [omp.barrier] synchronizes the team.

   Divergent barriers (not all threads reaching the same barrier) raise,
   which turns CUDA undefined behaviour into a test failure. *)

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

type env =
  { tbl : Mem.rv Value.Tbl.t
  ; parent : env option
  }

let new_env ?parent () = { tbl = Value.Tbl.create 32; parent }

let rec lookup env (v : Value.t) : Mem.rv =
  match Value.Tbl.find_opt env.tbl v with
  | Some rv -> rv
  | None -> begin
    match env.parent with
    | Some p -> lookup p v
    | None -> Mem.fail "unbound SSA value %s" (Value.to_string v)
  end

let bind env (v : Value.t) rv = Value.Tbl.replace env.tbl v rv

type state =
  { modul : Op.op
  ; stats : stats
  ; team_size : int (* interpreted OpenMP team size *)
  ; mutable team_rank : int (* rank of the currently-executing team thread *)
  ; mutable in_team : bool
  ; mutable fuel : int (* remaining op budget; negative = unbounded *)
  }

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

let rec exec_ops (st : state) (env : env) (ops : Op.op list) : unit =
  List.iter (exec_op st env) ops

and exec_op (st : state) (env : env) (op : Op.op) : unit =
  st.stats.ops <- st.stats.ops + 1;
  if st.fuel >= 0 then begin
    if st.fuel = 0 then
      Mem.fail "interpreter fuel exhausted after %d ops" st.stats.ops;
    st.fuel <- st.fuel - 1
  end;
  match op.kind with
  | Op.Module | Op.Func _ -> Mem.fail "cannot execute module/func as a statement"
  | Op.Yield -> ()
  | Op.Condition -> Mem.fail "scf.condition outside while handling"
  (* The frequent scalar ops call [Scalar] on their looked-up operands:
     building [Scalar.eval]'s operand array for each slowed the suite's
     interpretation by ~15%. *)
  | Op.Constant c -> bind env (Op.result op) (Scalar.const c)
  | Op.Binop kind ->
    let is_float = Scalar.is_float_value op.operands.(0) in
    if is_float then st.stats.flops <- st.stats.flops + 1;
    bind env (Op.result op)
      (Scalar.binop kind ~is_float
         (lookup env op.operands.(0))
         (lookup env op.operands.(1)))
  | Op.Cmp pred ->
    bind env (Op.result op)
      (Scalar.cmp pred
         ~is_float:(Scalar.is_float_value op.operands.(0))
         (lookup env op.operands.(0))
         (lookup env op.operands.(1)))
  | Op.Cast d ->
    bind env (Op.result op) (Scalar.cast d (lookup env op.operands.(0)))
  | Op.Select | Op.Math _ ->
    (match op.kind with
     | Op.Math _ -> st.stats.flops <- st.stats.flops + 1
     | _ -> ());
    bind env (Op.result op)
      (Scalar.eval op (Array.map (lookup env) op.operands))
  | Op.Alloc | Op.Alloca -> begin
    match (Op.result op).typ with
    | Types.Memref { elem; shape; _ } ->
      let dyn = ref (Array.to_list (Array.map (lookup env) op.operands)) in
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
      bind env (Op.result op) (Mem.Buf (Mem.alloc_buffer elem (Array.of_list dims)))
    | Types.Scalar _ -> Mem.fail "alloc of non-memref"
  end
  | Op.Dealloc -> ()
  | Op.Load ->
    st.stats.loads <- st.stats.loads + 1;
    let b = Mem.as_buf (lookup env op.operands.(0)) in
    let idxs =
      Array.init
        (Array.length op.operands - 1)
        (fun i -> Mem.as_int (lookup env op.operands.(i + 1)))
    in
    bind env (Op.result op) (Mem.load b idxs)
  | Op.Store ->
    st.stats.stores <- st.stats.stores + 1;
    let v = lookup env op.operands.(0) in
    let b = Mem.as_buf (lookup env op.operands.(1)) in
    let idxs =
      Array.init
        (Array.length op.operands - 2)
        (fun i -> Mem.as_int (lookup env op.operands.(i + 2)))
    in
    Mem.store b idxs v
  | Op.Copy ->
    let src = Mem.as_buf (lookup env op.operands.(0)) in
    let dst = Mem.as_buf (lookup env op.operands.(1)) in
    Mem.copy ~src ~dst
  | Op.Dim i ->
    let b = Mem.as_buf (lookup env op.operands.(0)) in
    bind env (Op.result op) (Mem.Int b.dims.(i))
  | Op.For ->
    let lo = Mem.as_int (lookup env (Op.for_lo op)) in
    let hi = Mem.as_int (lookup env (Op.for_hi op)) in
    let step = Mem.as_int (lookup env (Op.for_step op)) in
    if step <= 0 then Mem.fail "scf.for: non-positive step %d" step;
    let iv = Op.for_iv op in
    (* The iter_args' values: the inits, then what each iteration
       yields, read from that iteration's scope before the next one
       binds anything (so [scf.yield %b, %a] swaps).  A loop that
       carries nothing allocates nothing for them. *)
    let carried = Array.length op.results > 0 in
    let cur =
      if carried then Array.map (lookup env) (Op.for_inits op) else [||]
    in
    let i = ref lo in
    while !i < hi do
      let env' = new_env ~parent:env () in
      bind env' iv (Mem.Int !i);
      if carried then
        Array.iteri (fun k a -> bind env' a cur.(k)) (Op.for_iter_args op);
      exec_ops st env' op.regions.(0).body;
      if carried then
        Array.iteri
          (fun k v -> cur.(k) <- lookup env' v)
          (Op.yielded op.regions.(0));
      i := !i + step
    done;
    if carried then Array.iteri (fun k r -> bind env r cur.(k)) op.results
  | Op.While ->
    let rec loop () =
      let env' = new_env ~parent:env () in
      let cond_region = op.regions.(0).body in
      let rec run_cond = function
        | [] -> Mem.fail "while cond region missing scf.condition"
        | [ ({ Op.kind = Op.Condition; _ } as c) ] ->
          Mem.as_int (lookup env' c.operands.(0)) <> 0
        | o :: rest ->
          exec_op st env' o;
          run_cond rest
      in
      if run_cond cond_region then begin
        let env'' = new_env ~parent:env () in
        exec_ops st env'' op.regions.(1).body;
        loop ()
      end
    in
    loop ()
  | Op.If ->
    let c = Mem.as_int (lookup env op.operands.(0)) in
    let region = if c <> 0 then op.regions.(0) else op.regions.(1) in
    let env' = new_env ~parent:env () in
    exec_ops st env' region.body;
    if Array.length op.results > 0 then
      Array.iter2
        (fun r v -> bind env r (lookup env' v))
        op.results (Op.yielded region)
  | Op.Parallel kind -> exec_parallel st env op kind
  | Op.Barrier ->
    st.stats.barriers <- st.stats.barriers + 1;
    Effect.perform Sync
  | Op.Call name -> begin
    let callee =
      match Op.find_func st.modul name with
      | Some f -> f
      | None -> Mem.fail "call to unknown function @%s" name
    in
    let args = Array.map (lookup env) op.operands in
    match call_func st callee args with
    | Some rv when Array.length op.results = 1 -> bind env (Op.result op) rv
    | Some _ -> ()
    | None ->
      if Array.length op.results = 1 then
        Mem.fail "function @%s returned no value" name
  end
  | Op.Return ->
    let v =
      if Array.length op.operands = 1 then Some (lookup env op.operands.(0))
      else None
    in
    raise (Return_exc v)
  | Op.OmpParallel -> exec_omp_parallel st env op
  | Op.OmpWsloop -> exec_wsloop st env op
  | Op.OmpBarrier ->
    st.stats.barriers <- st.stats.barriers + 1;
    if st.in_team then Effect.perform Sync

(* Enumerate the (multi-dimensional) iteration space of a parallel op. *)
and par_space env (op : Op.op) : int array list =
  let n = Op.par_dims op in
  let lo = Array.init n (fun i -> Mem.as_int (lookup env (Op.par_lo op i))) in
  let hi = Array.init n (fun i -> Mem.as_int (lookup env (Op.par_hi op i))) in
  let step =
    Array.init n (fun i -> Mem.as_int (lookup env (Op.par_step op i)))
  in
  Mem.check_par_steps step;
  let rec build dim acc =
    if dim < 0 then [ acc ]
    else begin
      let out = ref [] in
      let v = ref lo.(dim) in
      while !v < hi.(dim) do
        out := !out @ build (dim - 1) (!v :: acc);
        v := !v + step.(dim)
      done;
      !out
    end
  in
  List.map Array.of_list (build (n - 1) [])

and exec_parallel st env (op : Op.op) (kind : Op.par_kind) : unit =
  let space = par_space env op in
  let ivs = op.regions.(0).rargs in
  match kind with
  | Op.Block when Op.contains_barrier_region op.regions.(0) ->
    (* Cooperative fibers synchronizing at barriers.  GPU threads are
       NOT an OpenMP team: any worksharing loop nested inside this
       region must be executed in full by every thread, so the team
       flag of an enclosing [omp.parallel] is masked for the duration
       (and re-masked at every slice, in case a nested omp region
       toggled it before a barrier suspension). *)
    let was_team = st.in_team in
    let was_rank = st.team_rank in
    let thunks =
      List.map
        (fun idx () ->
          let env' = new_env ~parent:env () in
          Array.iteri (fun i _ -> bind env' ivs.(i) (Mem.Int idx.(i))) ivs;
          exec_ops st env' op.regions.(0).body)
        space
    in
    Fun.protect
      ~finally:(fun () ->
        st.in_team <- was_team;
        st.team_rank <- was_rank)
      (fun () ->
        run_threads
          ~before_slice:(fun _ -> st.in_team <- false)
          (Array.of_list thunks))
  | Op.Grid | Op.Block | Op.Flat ->
    (* No synchronization inside: iterations run in order. *)
    List.iter
      (fun idx ->
        let env' = new_env ~parent:env () in
        Array.iteri (fun i _ -> bind env' ivs.(i) (Mem.Int idx.(i))) ivs;
        exec_ops st env' op.regions.(0).body)
      space

and exec_omp_parallel st env (op : Op.op) : unit =
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
        let env' = new_env ~parent:env () in
        exec_ops st env' op.regions.(0).body)
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

and exec_wsloop st env (op : Op.op) : unit =
  let space = par_space env op in
  let ivs = op.regions.(0).rargs in
  let iters = Array.of_list space in
  let n = Array.length iters in
  let lo, hi =
    if st.in_team then
      (* balanced static contiguous chunking across the team *)
      static_chunk ~rank:st.team_rank ~size:st.team_size ~n
    else (0, n)
  in
  for i = lo to hi - 1 do
    let env' = new_env ~parent:env () in
    Array.iteri (fun d _ -> bind env' ivs.(d) (Mem.Int iters.(i).(d))) ivs;
    exec_ops st env' op.regions.(0).body
  done

and call_func st (f : Op.op) (args : Mem.rv array) : Mem.rv option =
  let env = new_env () in
  let params = f.regions.(0).rargs in
  if Array.length params <> Array.length args then
    Mem.fail "@%s: arity mismatch" (Op.func_name f);
  Array.iteri (fun i p -> bind env p args.(i)) params;
  match exec_ops st env f.regions.(0).body with
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
  }

let run ?(team_size = 4) ?fuel (modul : Op.op) (name : string)
    (args : Mem.rv list) : Mem.rv option * stats =
  let st = create ~team_size ?fuel modul in
  let f =
    match Op.find_func modul name with
    | Some f -> f
    | None -> Mem.fail "no function @%s in module" name
  in
  let r = call_func st f (Array.of_list args) in
  (r, st.stats)
