(* Structural indexes over one function (or any op tree): defining ops of
   SSA values, parent links, and containment queries.  Rebuilt by each
   pass invocation after the tree changes. *)

open Ir

type def =
  | Def_op of Op.op (* value is a result of this op *)
  | Def_arg of Op.op * int (* value is arg #i of a region of this op *)
  | Def_external (* defined outside the analyzed tree (e.g. func params
                    when analyzing a nested op) *)

type t =
  { defs : def Value.Tbl.t
  ; parents : (int, Op.op) Hashtbl.t (* op oid -> parent op *)
  ; root : Op.op
  }

let build (root : Op.op) : t =
  let defs = Value.Tbl.create 256 in
  let parents = Hashtbl.create 256 in
  let rec go (op : Op.op) =
    Array.iter (fun v -> Value.Tbl.replace defs v (Def_op op)) op.results;
    Array.iter
      (fun (r : Op.region) ->
        Array.iteri (fun i v -> Value.Tbl.replace defs v (Def_arg (op, i))) r.rargs;
        List.iter
          (fun child ->
            Hashtbl.replace parents child.Op.oid op;
            go child)
          r.body)
      op.regions
  in
  go root;
  { defs; parents; root }

let def (t : t) (v : Value.t) : def =
  match Value.Tbl.find_opt t.defs v with
  | Some d -> d
  | None -> Def_external

let defining_op (t : t) (v : Value.t) : Op.op option =
  match def t v with
  | Def_op op -> Some op
  | Def_arg _ | Def_external -> None

let int_literal (t : t) (v : Value.t) : int option =
  match defining_op t v with
  | Some { Op.kind = Op.Constant (Op.Cint (n, _)); _ } -> Some n
  | _ -> None

(* Does this loop provably run its body: an [scf.for] with literal
   bounds lo < hi (constant after canonicalization)? *)
let trip_nonzero (t : t) (op : Op.op) : bool =
  match op.Op.kind with
  | Op.For -> begin
    match int_literal t (Op.for_lo op), int_literal t (Op.for_hi op) with
    | Some lo, Some hi -> lo < hi
    | _ -> false
  end
  | _ -> false

let parent (t : t) (op : Op.op) : Op.op option =
  Hashtbl.find_opt t.parents op.oid

(* Is [anc] a (strict or non-strict) ancestor of [op]? *)
let is_ancestor (t : t) ~(anc : Op.op) (op : Op.op) : bool =
  let rec go o =
    o.Op.oid = anc.Op.oid
    ||
    match parent t o with
    | Some p -> go p
    | None -> false
  in
  go op

(* Is value [v] defined inside op [container] (as a result or region arg of
   it or of anything nested in it)? *)
let defined_inside (t : t) ~(container : Op.op) (v : Value.t) : bool =
  match def t v with
  | Def_op op -> is_ancestor t ~anc:container op
  | Def_arg (op, _) -> is_ancestor t ~anc:container op
  | Def_external -> false

(* The chain of ancestors of [op] up to (excluding) [stop], innermost
   first.  Fails if [stop] is not an ancestor. *)
let ancestors_up_to (t : t) ~(stop : Op.op) (op : Op.op) : Op.op list =
  let rec go o acc =
    match parent t o with
    | Some p when p.Op.oid = stop.Op.oid -> List.rev acc
    | Some p -> go p (p :: acc)
    | None -> invalid_arg "ancestors_up_to: stop is not an ancestor"
  in
  go op []

(* The nearest block-parallel loop strictly enclosing [op]: the threads
   of one block that [__syncthreads] synchronizes. *)
let rec nearest_block_par (t : t) (op : Op.op) : Op.op option =
  match parent t op with
  | None -> None
  | Some ({ Op.kind = Op.Parallel Op.Block; _ } as p) -> Some p
  | Some p -> nearest_block_par t p

(* Is the memref a per-thread instance: an allocation, seen through
   casts, made inside a block-parallel loop?  Each thread then owns its
   own copy, so no other thread can observe or change it. *)
let thread_private (t : t) (v : Value.t) : bool =
  let rec alloc (v : Value.t) =
    match defining_op t v with
    | Some ({ Op.kind = Op.Alloc | Op.Alloca; _ } as o) -> Some o
    | Some { Op.kind = Op.Cast _; operands; _ } -> alloc operands.(0)
    | _ -> None
  in
  match alloc v with
  | Some o -> nearest_block_par t o <> None
  | None -> false

(* All serial-loop induction variables (For ivs and While-iteration
   context) strictly between [op] and [stop]. *)
let enclosing_loop_ivs (t : t) ~(stop : Op.op) (op : Op.op) : Value.Set.t =
  List.fold_left
    (fun acc (o : Op.op) ->
      match o.kind with
      | Op.For -> Value.Set.add (Op.for_iv o) acc
      | _ -> acc)
    Value.Set.empty
    (ancestors_up_to t ~stop op)
