(* Deep copy of ops/regions with SSA value remapping.

   Cloning allocates fresh result values and region arguments and rewrites
   every operand through the substitution table, so the clone is a valid
   independent piece of IR.  The substitution table can be pre-seeded to
   redirect free uses (e.g. replace an induction variable when duplicating
   a loop body into a new loop). *)

type subst = Value.t Value.Tbl.t

let create_subst () : subst = Value.Tbl.create 64

let add_subst (s : subst) ~from ~to_ = Value.Tbl.replace s from to_

let lookup (s : subst) v =
  match Value.Tbl.find_opt s v with Some v' -> v' | None -> v

let rec clone_op (s : subst) (op : Op.op) : Op.op =
  let operands = Array.map (lookup s) op.operands in
  let results =
    Array.map
      (fun (r : Value.t) ->
        let r' = Value.fresh ?name:r.name r.typ in
        Value.Tbl.replace s r r';
        r')
      op.results
  in
  (* Results must be remapped before regions are cloned: ops inside a
     region may not reference sibling results lexically later, but region
     args must be fresh before the body is visited. *)
  let regions = Array.map (clone_region s) op.regions in
  Op.mk op.kind ~operands ~results ~regions ~attrs:op.attrs ?loc:op.loc

and clone_region (s : subst) (r : Op.region) : Op.region =
  let rargs =
    Array.map
      (fun (a : Value.t) ->
        let a' = Value.fresh ?name:a.name a.typ in
        Value.Tbl.replace s a a';
        a')
      r.rargs
  in
  let body = List.map (clone_op s) r.body in
  { rargs; body }

let clone_op_fresh op = clone_op (create_subst ()) op

(* Clone a list of ops sharing one substitution (so defs in earlier ops are
   visible to later ones). *)
let clone_ops (s : subst) ops = List.map (clone_op s) ops

(* --- snapshots (the fault-tolerant pass manager) --- *)

(* A snapshot copies the op and region records and their arrays but
   keeps the very same [Value.t]s: values are immutable, and passes edit
   IR by replacing operand/region arrays and bodies ([Rewrite]), never
   values, so the copy is untouched by whatever happens to the original.
   Sharing values makes a snapshot O(IR) with no substitution table —
   and means it must never be spliced back into the module it came from
   (every value would be defined twice); only [restore] puts it back. *)
let rec copy_op (op : Op.op) : Op.op =
  Op.mk op.kind ~operands:(Array.copy op.operands)
    ~results:(Array.copy op.results)
    ~regions:(Array.map copy_region op.regions)
    ~attrs:op.attrs ?loc:op.loc

and copy_region (r : Op.region) : Op.region =
  { rargs = Array.copy r.rargs; body = List.map copy_op r.body }

let snapshot (op : Op.op) : Op.op = copy_op op

(* Restoring copies the snapshot again before moving its mutable pieces
   into [into]: the snapshot stays pristine, so the same snapshot can be
   restored several times (one rollback per rung of a degradation
   ladder).  Only the mutable fields are transplanted — [into] keeps its
   oid and result values — so this is meant for ops whose results carry
   no external uses, i.e. module roots. *)
let restore ~(into : Op.op) (snap : Op.op) : unit =
  into.Op.operands <- Array.copy snap.Op.operands;
  into.Op.regions <- Array.map copy_region snap.Op.regions;
  into.Op.attrs <- snap.Op.attrs;
  into.Op.loc <- snap.Op.loc

(* Equality up to SSA renaming: two ops are structurally equal when their
   kinds/attrs/shapes match and their values correspond under one
   consistent bijection.  This is how tests check that a rollback really
   restored the pre-stage IR (printing is not stable: value ids are
   global, so a clone prints differently). *)
let structural_equal (a : Op.op) (b : Op.op) : bool =
  let fwd : Value.t Value.Tbl.t = Value.Tbl.create 64 in
  let bwd : Value.t Value.Tbl.t = Value.Tbl.create 64 in
  let val_eq (x : Value.t) (y : Value.t) =
    match (Value.Tbl.find_opt fwd x, Value.Tbl.find_opt bwd y) with
    | Some y', Some x' -> Value.equal y y' && Value.equal x x'
    | None, None ->
      Value.Tbl.replace fwd x y;
      Value.Tbl.replace bwd y x;
      x.Value.typ = y.Value.typ
    | _ -> false
  in
  let vals_eq xs ys =
    Array.length xs = Array.length ys && Array.for_all2 val_eq xs ys
  in
  let rec op_eq (a : Op.op) (b : Op.op) =
    a.Op.kind = b.Op.kind
    && a.Op.attrs = b.Op.attrs
    && vals_eq a.Op.operands b.Op.operands
    && vals_eq a.Op.results b.Op.results
    && Array.length a.Op.regions = Array.length b.Op.regions
    && Array.for_all2 region_eq a.Op.regions b.Op.regions
  and region_eq (ra : Op.region) (rb : Op.region) =
    vals_eq ra.Op.rargs rb.Op.rargs
    && List.length ra.Op.body = List.length rb.Op.body
    && List.for_all2 op_eq ra.Op.body rb.Op.body
  in
  op_eq a b
