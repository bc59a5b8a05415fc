(* Common sub-expression elimination, scope-aware.

   Pure ops with identical (kind, operands, attrs) unify within a
   dominating scope (our region nesting gives dominance directly: an op
   dominates everything later in its region and inside later ops'
   regions).  Loads participate keyed by a per-base memory epoch that is
   bumped by potentially-conflicting writes; barriers bump every epoch
   except thread-private allocations — the precise cross-barrier cases are
   left to the forwarding pass (Mem2reg), which uses the full barrier
   memory semantics. *)

open Ir
open Analysis

type key =
  { k_kind : string
  ; k_operands : int list
  ; k_epoch : int
  }

let key_of ~epoch (op : Op.op) : key =
  let kind_str =
    match op.kind with
    | Op.Binop b -> "b:" ^ Op.binop_to_string b
    | Op.Cmp c -> "c:" ^ Op.cmp_to_string c
    | Op.Select -> "sel"
    | Op.Cast d -> "cast:" ^ Types.dtype_to_string d
    | Op.Math m -> "m:" ^ Op.math_to_string m
    | Op.Constant (Op.Cint (n, d)) ->
      Printf.sprintf "ci:%d:%s" n (Types.dtype_to_string d)
    | Op.Constant (Op.Cfloat (f, d)) ->
      Printf.sprintf "cf:%h:%s" f (Types.dtype_to_string d)
    | Op.Dim i -> Printf.sprintf "dim:%d" i
    | Op.Load -> "load"
    | _ -> assert false
  in
  { k_kind = kind_str
  ; k_operands = Array.to_list (Array.map (fun (v : Value.t) -> v.id) op.operands)
  ; k_epoch = epoch
  }

type st =
  { mutable scopes : (key, Value.t) Hashtbl.t list
  ; subst : Clone.subst
  ; mutable epoch : int (* bumped by writes, calls AND barriers *)
  ; mutable private_epoch : int (* bumped by writes and calls only: loads
                                   of thread-private allocations survive
                                   barriers but not same-thread stores *)
  ; info : Info.t
  }

let find st k =
  let rec go = function
    | [] -> None
    | s :: rest -> begin
      match Hashtbl.find_opt s k with
      | Some v -> Some v
      | None -> go rest
    end
  in
  go st.scopes

let record st k v =
  match st.scopes with
  | s :: _ -> Hashtbl.replace s k v
  | [] -> ()

let in_scope st f =
  st.scopes <- Hashtbl.create 32 :: st.scopes;
  let saved_epoch = st.epoch in
  f ();
  (* memory written inside the scope stays written *)
  ignore saved_epoch;
  st.scopes <- List.tl st.scopes

(* Is this load from a thread-private allocation (alloca/alloc defined
   inside the nearest enclosing block-parallel)?  Used to let loads of
   locals survive barrier epochs. *)
let thread_private st (base : Value.t) : bool =
  match Info.defining_op st.info base with
  | Some ({ Op.kind = Op.Alloc | Op.Alloca; _ } as def) -> begin
    (* private if no block-parallel encloses... conservative: private when
       the alloc's nearest parallel ancestor is a Block parallel, i.e. the
       buffer is created per-thread. *)
    let rec nearest_par (o : Op.op) =
      match Info.parent st.info o with
      | None -> None
      | Some p -> begin
        match p.Op.kind with
        | Op.Parallel k -> Some k
        | _ -> nearest_par p
      end
    in
    nearest_par def = Some Op.Block
  end
  | _ -> false

let rec visit st (op : Op.op) : Op.op list =
  op.operands <- Array.map (Clone.lookup st.subst) op.operands;
  if Op.is_pure op then begin
    let k = key_of ~epoch:0 op in
    match find st k with
    | Some v ->
      Clone.add_subst st.subst ~from:(Op.result op) ~to_:v;
      []
    | None ->
      record st k (Op.result op);
      [ op ]
  end
  else begin
    match op.kind with
    | Op.Load ->
      let epoch =
        if thread_private st op.operands.(0) then st.private_epoch
        else st.epoch
      in
      let k = key_of ~epoch op in
      begin
        match find st k with
        | Some v ->
          Clone.add_subst st.subst ~from:(Op.result op) ~to_:v;
          []
        | None ->
          record st k (Op.result op);
          [ op ]
      end
    | Op.Store | Op.Copy | Op.Call _ | Op.Dealloc ->
      st.epoch <- st.epoch + 1;
      st.private_epoch <- st.private_epoch + 1;
      [ op ]
    | Op.Barrier | Op.OmpBarrier ->
      st.epoch <- st.epoch + 1;
      [ op ]
    | Op.Func _ | Op.Module ->
      (* isolate scopes: SSA values never cross function boundaries *)
      let saved = st.scopes in
      st.scopes <- [ Hashtbl.create 64 ];
      Array.iter
        (fun (r : Op.region) -> r.body <- List.concat_map (visit st) r.body)
        op.regions;
      st.scopes <- saved;
      [ op ]
    | _ ->
      let has_writes =
        Op.exists
          (fun o ->
            match o.Op.kind with
            | Op.Store | Op.Copy | Op.Call _ | Op.Dealloc | Op.Barrier
            | Op.OmpBarrier ->
              true
            | _ -> false)
          op
      in
      let repeats =
        match op.kind with
        | Op.For | Op.While | Op.Parallel _ | Op.OmpWsloop | Op.OmpParallel ->
          true
        | _ -> false
      in
      (* loop-carried invalidation: a store in a later iteration may feed
         a load CSE'd in an earlier one — bump before entering the body *)
      if has_writes && repeats then begin
        st.epoch <- st.epoch + 1;
        st.private_epoch <- st.private_epoch + 1
      end;
      Array.iter
        (fun (r : Op.region) ->
          in_scope st (fun () -> r.body <- List.concat_map (visit st) r.body))
        op.regions;
      if has_writes then begin
        st.epoch <- st.epoch + 1;
        st.private_epoch <- st.private_epoch + 1
      end;
      [ op ]
  end

let run (m : Op.op) : unit =
  let st =
    { scopes = [ Hashtbl.create 64 ]
    ; subst = Clone.create_subst ()
    ; epoch = 1
    ; private_epoch = 1
    ; info = Info.build m
    }
  in
  (match visit st m with [ _ ] -> () | _ -> ())
