(* Parallel loop interchange (Sec. III-B2).

   After isolation splits, a block-parallel loop M whose body still
   contains a barrier has the shape

     parallel ivs { prefix...; C; suffix... }

   where C is the single top-level op containing barriers, the prefix is
   pure ops and loads (typically the cache loads/recomputation the split
   inserted), and the suffix is stores of prefix-derived values (caches
   for the next fission).  The prefix is safe to re-execute anywhere as
   long as its loads cannot conflict with C's writes (checked); that lets
   us move the parallel loop *inside* C:

   - serial for: bounds must be uniform across threads (a GPU-semantics
     requirement — every thread must reach each barrier the same number
     of times).  If the bound values are computed per-thread, thread
     (0,..,0) publishes them through helper memrefs first.

         for .. { parallel { prefix; body } }

   - if: uniform condition, published through a helper when needed:

         if c { parallel { prefix; then } } else { parallel { prefix; else } }

   - while: the condition must be evaluated by every thread each
     iteration; thread (0,..,0) stores its copy into a helper that
     decides the next iteration (Fig. 8):

         while { cond = parallel { prefix; K; if tid==0 store c };
                 load helper }
         do    { parallel { prefix; body } }

   The regions moved inside the new parallel loops may themselves still
   contain barriers; the cpuify driver re-processes them. *)

open Ir
open Analysis

exception Unsupported of string

let fail fmt = Printf.ksprintf (fun s -> raise (Unsupported s)) fmt

(* Split M's body into (prefix, C, suffix) around the unique
   barrier-containing top-level op. *)
let isolate_body (body : Op.op list) : (Op.op list * Op.op * Op.op list) option =
  let rec go pre = function
    | [] -> None
    | (c : Op.op) :: rest when Op.contains_barrier c ->
      if List.exists Op.contains_barrier rest then None
      else Some (List.rev pre, c, rest)
    | op :: rest -> go (op :: pre) rest
  in
  go [] body

(* Check the prefix/suffix movability conditions. *)
let check_movable (ctx : Effects.ctx) ~(c : Op.op) (prefix : Op.op list)
    (suffix : Op.op list) : unit =
  let c_effs = Effects.collect ctx [ c ] in
  let c_writes =
    List.filter (fun (a : Effects.access) -> a.Effects.acc_kind = Effects.Write) c_effs
  in
  List.iter
    (fun (op : Op.op) ->
      if Op.is_pure op then ()
      else
        match op.kind with
        | Op.Load ->
          let effs = Effects.collect_op ctx ~pinned:Value.Map.empty op in
          if
            List.exists
              (fun r ->
                List.exists (fun w -> Effects.any_thread_conflict ctx r w) c_writes)
              effs
          then fail "prefix load conflicts with the isolated construct"
        | _ -> fail "prefix contains a non-pure, non-load op")
    prefix;
  List.iter
    (fun (op : Op.op) ->
      if Op.is_pure op then ()
      else
        match op.kind with
        | Op.Store ->
          let effs = Effects.collect_op ctx ~pinned:Value.Map.empty op in
          if
            List.exists
              (fun w ->
                List.exists (fun e -> Effects.any_thread_conflict ctx w e) c_effs)
              effs
          then fail "suffix store conflicts with the isolated construct"
        | _ -> fail "suffix contains a non-pure, non-store op")
    suffix

(* Build [parallel ivs' { clone(prefix); clone(extra) }] with a fresh
   substitution seeded by ivs -> ivs'.  Returns (op, subst, ivs'). *)
let clone_parallel (m_par : Op.op) (prefix : Op.op list) (extra : Op.op list)
    : Op.op * Clone.subst * Value.t array =
  let ivs = m_par.Op.regions.(0).rargs in
  let subst = Clone.create_subst () in
  let ivs' =
    Array.map
      (fun (iv : Value.t) ->
        let iv' = Value.fresh ?name:iv.name iv.typ in
        Clone.add_subst subst ~from:iv ~to_:iv';
        iv')
      ivs
  in
  let body = Clone.clone_ops subst (prefix @ extra) in
  let p =
    Op.mk (Op.Parallel Op.Block) ~operands:m_par.Op.operands
      ~regions:[| Op.region ~args:ivs' body |]
  in
  (p, subst, ivs')

(* Emit [if (ivs' == 0) { stores }] — the thread-(0,0,0) publication used
   by the helper-variable trick. *)
let thread0_publish (seq : Builder.Seq.t) (ivs' : Value.t array)
    (stores : Op.op list) : unit =
  let c0 = Builder.Seq.emitv seq (Builder.const_int 0) in
  let conds =
    Array.to_list
      (Array.map (fun iv -> Builder.Seq.emitv seq (Builder.cmp Op.Eq iv c0)) ivs')
  in
  let all =
    match conds with
    | [] -> Builder.Seq.emitv seq (Builder.const_int ~dtype:Types.I1 1)
    | c :: rest ->
      List.fold_left
        (fun acc c' -> Builder.Seq.emitv seq (Builder.binop Op.And acc c'))
        c rest
  in
  ignore (Builder.Seq.emit seq (Builder.if_ all stores))

(* Publish per-thread values through rank-0 helpers so they become
   available outside the parallel loop.  Returns (ops before, loaded
   values) — the "before" ops include a full parallel loop executing the
   prefix and the thread-0 stores. *)
let publish_via_helpers (m_par : Op.op) (prefix : Op.op list)
    (values : Value.t list) : Op.op list * Value.t list =
  let out = Builder.Seq.create () in
  let helpers =
    List.map
      (fun (v : Value.t) ->
        let elem =
          match v.typ with
          | Types.Scalar d -> d
          | Types.Memref _ -> fail "cannot publish a memref through a helper"
        in
        Builder.Seq.emitv out (Builder.alloc elem [] []))
      values
  in
  let p, subst, ivs' = clone_parallel m_par prefix [] in
  let inner = Builder.Seq.create () in
  let stores =
    List.map2
      (fun v h -> Builder.store (Clone.lookup subst v) h [])
      values helpers
  in
  thread0_publish inner ivs' stores;
  p.Op.regions.(0).body <- p.Op.regions.(0).body @ Builder.Seq.to_list inner;
  ignore (Builder.Seq.emit out p);
  let loaded =
    List.map (fun h -> Builder.Seq.emitv out (Builder.load h [])) helpers
  in
  (Builder.Seq.to_list out, loaded)

(* Values among [vs] that are defined inside M (hence unavailable outside). *)
let inside_values (info : Info.t) (m_par : Op.op) (vs : Value.t list) :
  Value.t list =
  List.filter (fun v -> Info.defined_inside info ~container:m_par v) vs
  |> List.sort_uniq Value.compare

(* The suffix re-emitted as its own trailing parallel loop. *)
let suffix_loop (m_par : Op.op) (prefix : Op.op list) (suffix : Op.op list) :
  Op.op list =
  if suffix = [] then []
  else begin
    let p, _, _ = clone_parallel m_par prefix suffix in
    [ p ]
  end

(* --- the three interchanges --- *)

let interchange_for (info : Info.t) (m_par : Op.op) (prefix : Op.op list)
    (c : Op.op) (suffix : Op.op list) : Op.op list =
  let bounds = [ Op.for_lo c; Op.for_hi c; Op.for_step c ] in
  let need_helpers = inside_values info m_par bounds in
  let pre_ops, resolve =
    if need_helpers = [] then ([], fun v -> v)
    else begin
      let ops, loaded = publish_via_helpers m_par prefix need_helpers in
      let table = List.combine need_helpers loaded in
      (ops, fun v -> match List.assq_opt v table with Some l -> l | None -> v)
    end
  in
  let lo = resolve (Op.for_lo c)
  and hi = resolve (Op.for_hi c)
  and step = resolve (Op.for_step c) in
  let new_for =
    Builder.for_ ~lo ~hi ~step (fun iv ->
        let p, subst, _ = clone_parallel m_par prefix [] in
        (* the for iv is uniform: the inner body refers to the new iv *)
        Clone.add_subst subst ~from:(Op.for_iv c) ~to_:iv;
        let inner_body = Clone.clone_ops subst c.Op.regions.(0).body in
        p.Op.regions.(0).body <- p.Op.regions.(0).body @ inner_body;
        [ p ])
  in
  pre_ops @ [ new_for ] @ suffix_loop m_par prefix suffix

let interchange_if (info : Info.t) (m_par : Op.op) (prefix : Op.op list)
    (c : Op.op) (suffix : Op.op list) : Op.op list =
  let cond = c.Op.operands.(0) in
  let pre_ops, cond' =
    if inside_values info m_par [ cond ] = [] then ([], cond)
    else begin
      let ops, loaded = publish_via_helpers m_par prefix [ cond ] in
      (ops, List.hd loaded)
    end
  in
  let branch region_idx =
    if c.Op.regions.(region_idx).Op.body = [] then []
    else begin
      let p, subst, _ = clone_parallel m_par prefix [] in
      let body = Clone.clone_ops subst c.Op.regions.(region_idx).Op.body in
      p.Op.regions.(0).body <- p.Op.regions.(0).body @ body;
      [ p ]
    end
  in
  let new_if = Builder.if_ cond' (branch 0) ~else_:(branch 1) in
  pre_ops @ [ new_if ] @ suffix_loop m_par prefix suffix

let interchange_while (_info : Info.t) (m_par : Op.op) (prefix : Op.op list)
    (c : Op.op) (suffix : Op.op list) : Op.op list =
  (* helper for the loop condition (Fig. 8) *)
  let out = Builder.Seq.create () in
  let helper = Builder.Seq.emitv out (Builder.alloc Types.I1 [] []) in
  let cond_region_body =
    (* parallel { prefix; K; if tid==0 store c }; %c = load helper;
       condition %c *)
    let p, subst, ivs' = clone_parallel m_par prefix [] in
    let k_ops = c.Op.regions.(0).Op.body in
    (* the Condition terminator carries the per-thread condition value *)
    let rec split_cond acc = function
      | [] -> fail "while cond region has no scf.condition"
      | [ ({ Op.kind = Op.Condition; _ } as last) ] -> (List.rev acc, last)
      | op :: rest -> split_cond (op :: acc) rest
    in
    let k_body, cond_op = split_cond [] k_ops in
    let cloned_k = Clone.clone_ops subst k_body in
    let cv = Clone.lookup subst cond_op.Op.operands.(0) in
    let inner = Builder.Seq.create () in
    thread0_publish inner ivs' [ Builder.store cv helper [] ];
    p.Op.regions.(0).body <-
      p.Op.regions.(0).body @ cloned_k @ Builder.Seq.to_list inner;
    let ld = Builder.load helper [] in
    [ p; ld; Builder.condition (Op.result ld) ]
  in
  let body_region_body =
    if c.Op.regions.(1).Op.body = [] then []
    else begin
      let p, subst, _ = clone_parallel m_par prefix [] in
      let body = Clone.clone_ops subst c.Op.regions.(1).Op.body in
      p.Op.regions.(0).body <- p.Op.regions.(0).body @ body;
      [ p ]
    end
  in
  let new_while =
    Op.mk Op.While
      ~regions:[| Op.region cond_region_body; Op.region body_region_body |]
  in
  Builder.Seq.to_list out @ [ new_while ] @ suffix_loop m_par prefix suffix

(* --- entry point --- *)

(* Interchange M with the single barrier-containing op of its body.
   Returns the replacement sequence, or None when the body shape does not
   match (caller should then fall back to isolation splitting). *)
let interchange (modul : Op.op) (m_par : Op.op) : Op.op list option =
  match isolate_body m_par.Op.regions.(0).body with
  | None -> None
  | Some (prefix, c, suffix) ->
    (* the verifier keeps barriers out of value-carrying ops, so [c]
       never carries values; refuse rather than drop its yields *)
    if Op.carries_values c then
      fail "cannot interchange a parallel loop with a value-carrying op";
    let info = Info.build modul in
    let ctx = Effects.make_ctx ~modul ~par:m_par info in
    check_movable ctx ~c prefix suffix;
    (match c.Op.kind with
     | Op.For -> Some (interchange_for info m_par prefix c suffix)
     | Op.If -> Some (interchange_if info m_par prefix c suffix)
     | Op.While -> Some (interchange_while info m_par prefix c suffix)
     | _ -> fail "cannot interchange a parallel loop with %s"
              (Printer.op_to_string c |> String.trim))

(* Structured-result boundary for the pass manager: the same rewrite,
   with [Unsupported] reified instead of escaping as an exception. *)
let interchange_result (modul : Op.op) (m_par : Op.op) :
  (Op.op list option, string) result =
  match interchange modul m_par with
  | v -> Ok v
  | exception Unsupported msg -> Error msg
