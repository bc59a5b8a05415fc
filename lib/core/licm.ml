(* Loop-invariant code motion, in two flavours.

   Serial [scf.for]: the classical transformation — an op with
   loop-invariant operands moves out when no other op in the loop may
   conflict with its memory accesses, and (for ops that touch memory) the
   loop provably executes at least once.

   Parallel loops (Sec. IV-C): the lock-step argument.  Iterations of a
   parallel loop may be interleaved arbitrarily, so it is legal to imagine
   all threads executing instruction k before any executes k+1.  An op
   can therefore be hoisted when its operands are invariant and only
   *prior* ops in the loop body conflict with it — conflicts with
   *subsequent* ops do not matter.  This is strictly more powerful than
   the serial rule and is what hoists the O(N) call to @sum out of the
   normalize kernel of Fig. 1, turning O(N^2) total work into O(N).
   A load or call hoisted out of a parallel loop that may run zero times
   runs under an [scf.if] testing that the loop is not empty. *)

open Ir
open Analysis
module Scalar = Interp.Scalar

(* Pure ops move freely, except one that may trap: hoisted out of a
   loop that runs zero times, it would fail a run that succeeds. *)
let movable_pure info (op : Op.op) =
  Op.is_pure op && not (Scalar.may_trap ~literal:(Info.int_literal info) op)

(* Effects of an op, or None when the op is opaque to this analysis. *)
let op_effects ctx (op : Op.op) : Effects.access list =
  Effects.collect_op ctx ~pinned:Value.Map.empty op

let read_only effs =
  List.for_all (fun (a : Effects.access) -> a.Effects.acc_kind = Effects.Read) effs

(* --- parallel LICM --- *)

(* The bounds of the loop's dimensions that may run zero times: all but
   those with literal bounds lo < hi.  [Info.trip_nonzero] answers for
   [scf.for] only; Mhp and Effects ask it of parallel loops too. *)
let maybe_empty_dims info (par : Op.op) : (Value.t * Value.t) list =
  List.filter
    (fun (lo, hi) ->
      match (Info.int_literal info lo, Info.int_literal info hi) with
      | Some l, Some h -> l >= h
      | _ -> true)
    (List.init (Op.par_dims par) (fun d -> (Op.par_lo par d, Op.par_hi par d)))

(* The zero a guard yields for a scalar result when the loop is empty.
   A memref result has none: an op with one is not hoisted. *)
let zero (v : Value.t) : Op.op =
  match v.typ with
  | Types.Scalar d when Types.is_float_dtype d ->
    Builder.const_float ~dtype:d 0.0
  | Types.Scalar d -> Builder.const_int ~dtype:d 0
  | Types.Memref _ -> invalid_arg "Licm.zero: a memref has no zero"

let scalar (v : Value.t) =
  match v.typ with Types.Scalar _ -> true | Types.Memref _ -> false

(* [lo < hi] in every one of [dims], and the ops computing it. *)
let nonempty dims : Op.op list * Value.t =
  let s = Builder.Seq.create () in
  let test (lo, hi) = Builder.Seq.emitv s (Builder.cmp Op.Lt lo hi) in
  let c =
    List.fold_left
      (fun c d -> Builder.Seq.emitv s (Builder.binop Op.And c (test d)))
      (test (List.hd dims)) (List.tl dims)
  in
  (Builder.Seq.to_list s, c)

(* [op] under [scf.if %cond]: the if takes over the op's results and
   yields zeros when [cond] is false, so no use needs rewriting. *)
let guarded (cond : Value.t) (op : Op.op) : Op.op =
  let fresh =
    Array.map (fun (v : Value.t) -> Value.fresh ?name:v.name v.typ) op.results
  in
  let inner =
    Op.mk op.kind ~operands:op.operands ~results:fresh ~attrs:op.attrs
      ?loc:op.loc
  in
  let zeros = Array.map zero op.results in
  let yielding vals ops =
    if vals = [||] then ops else ops @ [ Builder.yield_ (Array.to_list vals) ]
  in
  Op.mk Op.If ~operands:[| cond |] ~results:op.results ?loc:op.loc
    ~regions:
      [| Op.region (yielding fresh [ inner ])
       ; Op.region (yielding (Array.map Op.result zeros) (Array.to_list zeros))
      |]

(* Hoist ops out of one parallel loop body.  Returns hoisted ops (in
   order); the loop body is updated in place. *)
let hoist_from_parallel (info : Info.t) (modul : Op.op) (par : Op.op) :
  Op.op list =
  let ctx = Effects.make_ctx ~modul ~par info in
  let body = par.Op.regions.(0).body in
  let dims = maybe_empty_dims info par in
  let may_be_empty = dims <> [] in
  let hoisted = ref [] in
  (* The loop's non-emptiness test, emitted before the first load or
     call that needs it. *)
  let cond = ref None in
  let nonempty_cond () =
    match !cond with
    | Some c -> c
    | None ->
      let ops, c = nonempty dims in
      hoisted := List.rev_append ops !hoisted;
      cond := Some c;
      c
  in
  let hoisted_vals = ref Value.Set.empty in
  let prior_writes = ref [] in
  let invariant (v : Value.t) =
    (not (Info.defined_inside info ~container:par v))
    || Value.Set.mem v !hoisted_vals
  in
  let keep = ref [] in
  List.iter
    (fun (op : Op.op) ->
      let operands_ok = Array.for_all invariant op.operands in
      let can_hoist =
        operands_ok
        &&
        if movable_pure info op then true
        else begin
          match op.kind with
          | Op.Load | Op.Call _ ->
            let effs = op_effects ctx op in
            read_only effs
            && ((not may_be_empty) || Array.for_all scalar op.results)
            && not
                 (List.exists
                    (fun (r : Effects.access) ->
                      List.exists
                        (fun w -> Effects.any_thread_conflict ctx r w)
                        !prior_writes)
                    effs)
          | _ -> false
        end
      in
      if can_hoist then begin
        if (not may_be_empty) || movable_pure info op then
          hoisted := op :: !hoisted
        else begin
          let c = nonempty_cond () in
          hoisted := guarded c op :: !hoisted
        end;
        Array.iter
          (fun v -> hoisted_vals := Value.Set.add v !hoisted_vals)
          op.results
      end
      else begin
        keep := op :: !keep;
        let effs = op_effects ctx op in
        prior_writes :=
          List.filter
            (fun (a : Effects.access) -> a.Effects.acc_kind = Effects.Write)
            effs
          @ !prior_writes
      end)
    body;
  par.Op.regions.(0).body <- List.rev !keep;
  List.rev !hoisted

(* --- serial LICM --- *)

let hoist_from_for (info : Info.t) (modul : Op.op) (floop : Op.op) :
  Op.op list =
  let ctx = Effects.make_ctx ~modul info in
  let body = floop.Op.regions.(0).body in
  let all_writes =
    List.filter
      (fun (a : Effects.access) -> a.Effects.acc_kind = Effects.Write)
      (Effects.collect ctx body)
  in
  let nonzero_trip = Info.trip_nonzero info floop in
  let hoisted = ref [] in
  let hoisted_vals = ref Value.Set.empty in
  let invariant (v : Value.t) =
    (not (Info.defined_inside info ~container:floop v))
    || Value.Set.mem v !hoisted_vals
  in
  let keep = ref [] in
  List.iter
    (fun (op : Op.op) ->
      let operands_ok = Array.for_all invariant op.operands in
      let can_hoist =
        operands_ok
        &&
        if movable_pure info op then true
        else begin
          match op.kind with
          | Op.Load | Op.Call _ when nonzero_trip ->
            let effs = op_effects ctx op in
            read_only effs
            && not
                 (List.exists
                    (fun r ->
                      List.exists
                        (fun w -> Effects.any_thread_conflict ctx r w)
                        all_writes)
                    effs)
          | _ -> false
        end
      in
      if can_hoist then begin
        hoisted := op :: !hoisted;
        Array.iter
          (fun v -> hoisted_vals := Value.Set.add v !hoisted_vals)
          op.results
      end
      else keep := op :: !keep)
    body;
  floop.Op.regions.(0).body <- List.rev !keep;
  List.rev !hoisted

(* --- driver: innermost-first until fixpoint --- *)

let run (m : Op.op) : int =
  let moved = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let info = Info.build m in
    let rec visit (op : Op.op) : Op.op list =
      Array.iter
        (fun (r : Op.region) -> r.body <- List.concat_map visit r.body)
        op.Op.regions;
      match op.Op.kind with
      | Op.Parallel _ | Op.OmpWsloop ->
        let h = hoist_from_parallel info m op in
        if h <> [] then begin
          changed := true;
          moved := !moved + List.length h
        end;
        h @ [ op ]
      | Op.For ->
        let h = hoist_from_for info m op in
        if h <> [] then begin
          changed := true;
          moved := !moved + List.length h
        end;
        h @ [ op ]
      | _ -> [ op ]
    in
    match visit m with [ _ ] -> () | _ -> ()
  done;
  !moved
