(* Parallel loop splitting (Sec. III-B1): fission of a block-parallel loop
   at a top-level barrier.

     parallel { A; barrier; B }   ==>   parallel { A; <stores> }
                                        parallel { <loads/recompute>; B }

   SSA values defined in A and used in B must cross the fission in memory
   or be recomputed.  A min vertex cut over the SSA graph (sources:
   non-recomputable definitions such as loads and calls; sinks: the values
   B uses) picks the cheapest set to cache — Fig. 6's example stores the
   two loaded values and recomputes the three arithmetic results.

   Thread-local allocas that would have to survive the fission are first
   expanded into per-thread slabs allocated outside the loop (one extra
   dimension per thread iv), the standard expansion also used by VGPU. *)

open Ir

exception Unsupported of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* --- alloca expansion --- *)

(* Hoist every top-level alloca/alloc of [par]'s body out of the loop,
   adding one leading dimension per thread iv; loads/stores through it get
   the thread ivs prepended.  Returns the ops to place before the loop. *)
let expand_allocas (par : Op.op) : Op.op list =
  let body = par.Op.regions.(0).body in
  let ivs = par.Op.regions.(0).rargs in
  let n = Op.par_dims par in
  let pre = Builder.Seq.create () in
  let emitv op = Builder.Seq.emitv pre op in
  (* iteration extents of the parallel loop *)
  let extents =
    lazy
      (List.init n (fun i ->
           let lo = Op.par_lo par i in
           let hi = Op.par_hi par i in
           let step = Op.par_step par i in
           let d = emitv (Builder.binop Op.Sub hi lo) in
           let sm1 =
             emitv
               (Builder.binop Op.Add d
                  (emitv
                     (Builder.binop Op.Sub step
                        (emitv (Builder.const_int 1)))))
           in
           emitv (Builder.binop Op.Div sm1 step)))
  in
  let expanded = ref [] in
  let new_body =
    List.filter_map
      (fun (op : Op.op) ->
        match op.Op.kind with
        | Op.Alloca | Op.Alloc -> begin
          match (Op.result op).typ with
          | Types.Memref { elem; shape; _ } ->
            let dyn = Array.to_list op.Op.operands in
            let slab =
              Builder.alloc ~space:Types.Local elem
                (List.init n (fun _ -> None) @ shape)
                (Lazy.force extents @ dyn)
            in
            ignore (Builder.Seq.emit pre slab);
            expanded := (Op.result op, Op.result slab) :: !expanded;
            None
          | Types.Scalar _ -> Some op
        end
        | _ -> Some op)
      body
  in
  if !expanded = [] then []
  else begin
    (* rewrite loads/stores through the expanded bases; drop their
       deallocs; reject any other kind of use *)
    let lookup v = List.assq_opt v !expanded in
    let prepend_ivs idxs = Array.append (Array.copy ivs) idxs in
    let rec rw (o : Op.op) : Op.op list =
      Array.iter
        (fun (r : Op.region) -> r.body <- List.concat_map rw r.body)
        o.Op.regions;
      match o.Op.kind with
      | Op.Load when lookup o.Op.operands.(0) <> None ->
        let slab = Option.get (lookup o.Op.operands.(0)) in
        o.Op.operands <-
          Array.append [| slab |]
            (prepend_ivs (Array.sub o.Op.operands 1 (Array.length o.Op.operands - 1)));
        [ o ]
      | Op.Store when lookup o.Op.operands.(1) <> None ->
        let slab = Option.get (lookup o.Op.operands.(1)) in
        o.Op.operands <-
          Array.append
            [| o.Op.operands.(0); slab |]
            (prepend_ivs (Array.sub o.Op.operands 2 (Array.length o.Op.operands - 2)));
        [ o ]
      | Op.Dealloc when lookup o.Op.operands.(0) <> None -> []
      | _ ->
        Array.iter
          (fun v ->
            if lookup v <> None then
              fail "alloca escapes through a non-load/store use")
          o.Op.operands;
        [ o ]
    in
    par.Op.regions.(0).body <- List.concat_map rw new_body;
    Builder.Seq.to_list pre
  end

(* --- the split itself --- *)

(* Index of the first top-level barrier in a region body. *)
let top_barrier_index (body : Op.op list) : int option =
  let rec go i = function
    | [] -> None
    | { Op.kind = Op.Barrier; _ } :: _ -> Some i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 body

type split_stats =
  { mutable cached_values : int
  ; mutable recomputed_ops : int
  }

let stats = { cached_values = 0; recomputed_ops = 0 }

let reset_stats () =
  stats.cached_values <- 0;
  stats.recomputed_ops <- 0

(* Split [par] at its first top-level barrier.  Returns the replacement op
   sequence, or None if there is no top-level barrier. *)
let split_parallel ~(use_mincut : bool) (par : Op.op) : Op.op list option =
  match top_barrier_index par.Op.regions.(0).body with
  | None -> None
  | Some bi ->
    ignore bi;
    let pre_allocs = expand_allocas par in
    (* positions may have shifted: allocas were removed from the body *)
    let body = par.Op.regions.(0).body in
    let bi =
      match top_barrier_index body with Some i -> i | None -> assert false
    in
    let rec take k = function
      | [] -> ([], [])
      | l when k = 0 -> ([], l)
      | x :: rest ->
        let a, b = take (k - 1) rest in
        (x :: a, b)
    in
    let a_ops, rest = take bi body in
    let b_ops = match rest with _barrier :: b -> b | [] -> [] in
    let ivs = par.Op.regions.(0).rargs in
    let n = Op.par_dims par in
    let lbs = List.init n (Op.par_lo par) in
    let ubs = List.init n (Op.par_hi par) in
    let steps = List.init n (Op.par_step par) in
    (* values defined at the top level of A *)
    let defined_in_a = Value.Tbl.create 16 in
    List.iter
      (fun (o : Op.op) ->
        Array.iter (fun v -> Value.Tbl.replace defined_in_a v o) o.Op.results)
      a_ops;
    (* values B needs from A *)
    let b_free = Rewrite.free_values b_ops in
    let need =
      Value.Set.filter (fun v -> Value.Tbl.mem defined_in_a v) b_free
    in
    let pre = Builder.Seq.create () in
    let emit_pre op = Builder.Seq.emit pre op in
    let stored, recompute =
      if Value.Set.is_empty need then (Value.Set.empty, Value.Set.empty)
      else if not use_mincut then (need, Value.Set.empty)
      else begin
        (* backward closure over operands of A-defined values *)
        let closure = Value.Tbl.create 16 in
        let rec close v =
          if not (Value.Tbl.mem closure v) then begin
            match Value.Tbl.find_opt defined_in_a v with
            | None -> () (* free: defined outside A or an iv *)
            | Some def ->
              Value.Tbl.replace closure v def;
              Array.iter close def.Op.operands
          end
        in
        Value.Set.iter close need;
        let nodes = Value.Tbl.fold (fun v _ acc -> v :: acc) closure [] in
        let index = Value.Tbl.create 16 in
        List.iteri (fun i v -> Value.Tbl.replace index v i) nodes;
        let nn = List.length nodes in
        (* node 2i = v_in, 2i+1 = v_out; s = 2nn, t = 2nn+1 *)
        let g = Mincut.create ~nnodes:((2 * nn) + 2) in
        let s = 2 * nn and t = (2 * nn) + 1 in
        List.iteri
          (fun i v ->
            let def = Value.Tbl.find closure v in
            Mincut.add_edge g (2 * i) ((2 * i) + 1) ~cap:1;
            if not (Op.is_pure def) then Mincut.add_edge g s (2 * i) ~cap:Mincut.inf;
            (* def -> use edges *)
            Array.iter
              (fun u ->
                match Value.Tbl.find_opt index u with
                | Some j -> Mincut.add_edge g ((2 * j) + 1) (2 * i) ~cap:Mincut.inf
                | None -> ())
              def.Op.operands;
            if Value.Set.mem v need then
              Mincut.add_edge g ((2 * i) + 1) t ~cap:Mincut.inf)
          nodes;
        ignore (Mincut.max_flow g ~s ~t);
        let reach = Mincut.residual_reachable g ~s in
        let stored = ref Value.Set.empty in
        List.iteri
          (fun i v ->
            if reach.(2 * i) && not reach.((2 * i) + 1) then
              stored := Value.Set.add v !stored)
          nodes;
        (* whatever is needed (transitively from `need`) but not stored
           gets recomputed *)
        let recompute = ref Value.Set.empty in
        let rec mark v =
          if
            (not (Value.Set.mem v !stored))
            && not (Value.Set.mem v !recompute)
          then begin
            match Value.Tbl.find_opt closure v with
            | None -> ()
            | Some def ->
              recompute := Value.Set.add v !recompute;
              Array.iter mark def.Op.operands
          end
        in
        Value.Set.iter mark need;
        (!stored, !recompute)
      end
    in
    stats.cached_values <- stats.cached_values + Value.Set.cardinal stored;
    (* extents for cache sizing *)
    let extents =
      List.map2
        (fun (lo : Value.t) (hi, step) ->
          let d = Builder.Seq.emitv pre (Builder.binop Op.Sub hi lo) in
          let c1 = Builder.Seq.emitv pre (Builder.const_int 1) in
          let sm1 = Builder.Seq.emitv pre (Builder.binop Op.Sub step c1) in
          let num = Builder.Seq.emitv pre (Builder.binop Op.Add d sm1) in
          Builder.Seq.emitv pre (Builder.binop Op.Div num step))
        lbs
        (List.combine ubs steps)
    in
    (* one cache per stored value *)
    let caches =
      Value.Set.fold
        (fun (v : Value.t) acc ->
          let elem =
            match v.typ with
            | Types.Scalar d -> d
            | Types.Memref _ ->
              fail "cannot cache a memref-typed value across a barrier split"
          in
          let c =
            Builder.alloc ~space:Types.Local elem
              (List.map (fun _ -> None) extents)
              extents
          in
          ignore (emit_pre c);
          (v, Op.result c) :: acc)
        stored []
    in
    (* first loop: A plus the cache stores *)
    let loop1 =
      Op.mk (Op.Parallel Op.Block)
        ~operands:par.Op.operands
        ~regions:
          [| Op.region ~args:ivs
               (a_ops
                @ List.map
                    (fun (v, cache) ->
                      Builder.store v cache (Array.to_list ivs))
                    caches)
          |]
    in
    (* second loop: loads + recomputation + B *)
    let subst = Clone.create_subst () in
    let ivs2 =
      Array.map
        (fun (iv : Value.t) ->
          let iv' = Value.fresh ?name:iv.name iv.typ in
          Clone.add_subst subst ~from:iv ~to_:iv';
          iv')
        ivs
    in
    let prefix = Builder.Seq.create () in
    List.iter
      (fun (op : Op.op) ->
        let result_needed which =
          Array.exists (fun v -> Value.Set.mem v which) op.Op.results
        in
        if result_needed stored then begin
          (* load each stored result *)
          Array.iter
            (fun v ->
              if Value.Set.mem v stored then begin
                let cache = List.assoc v caches in
                let ld = Builder.load cache (Array.to_list ivs2) in
                ignore (Builder.Seq.emit prefix ld);
                Clone.add_subst subst ~from:v ~to_:(Op.result ld)
              end)
            op.Op.results
        end
        else if result_needed recompute then begin
          assert (Op.is_pure op);
          stats.recomputed_ops <- stats.recomputed_ops + 1;
          let c = Clone.clone_op subst op in
          ignore (Builder.Seq.emit prefix c)
        end)
      a_ops;
    (* substitute into B *)
    let b_ops = List.map (Clone.clone_op subst) b_ops in
    let loop2 =
      Op.mk (Op.Parallel Op.Block)
        ~operands:par.Op.operands
        ~regions:[| Op.region ~args:ivs2 (Builder.Seq.to_list prefix @ b_ops) |]
    in
    let deallocs = List.map (fun (_, c) -> Builder.dealloc c) caches in
    Some
      (pre_allocs @ Builder.Seq.to_list pre @ [ loop1; loop2 ] @ deallocs)

(* Structured-result boundary for the pass manager: the same split, with
   [Unsupported] reified instead of escaping as an exception. *)
let split_result ~(use_mincut : bool) (par : Op.op) :
  (Op.op list option, string) result =
  match split_parallel ~use_mincut par with
  | v -> Ok v
  | exception Unsupported msg -> Error msg
