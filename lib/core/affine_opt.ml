(* The "affine" ablation of Fig. 13: raising loops to their affine form
   enables simple loop optimizations — most importantly full unrolling of
   small constant-trip loops that contain synchronization.  Unrolling the
   backprop reduction loop turns its in-loop barrier into straight-line
   barriers between if statements, which fission handles without any
   interchange machinery, and lets the [1 << i] / [ty %% 2^i] arithmetic
   constant-fold (the paper reports 2.6x on backprop from this alone). *)

open Ir
open Analysis

let max_unroll = 16

(* Fully unroll [For] ops with known trip count <= max_unroll that contain
   a barrier.  Returns the number of loops unrolled. *)
let run (m : Op.op) : int =
  (* loop bounds are often small constant expressions ([i <= 4 + 1]): fold
     them first so trip counts become visible *)
  Canonicalize.run m;
  let unrolled = ref 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    let info = Info.build m in
    let rec visit (op : Op.op) : Op.op list =
      Array.iter
        (fun (r : Op.region) -> r.body <- List.concat_map visit r.body)
        op.Op.regions;
      match op.Op.kind with
      | Op.For when Op.contains_barrier op -> begin
        match
          ( Info.int_literal info (Op.for_lo op)
          , Info.int_literal info (Op.for_hi op)
          , Info.int_literal info (Op.for_step op) )
        with
        | Some lo, Some hi, Some step
          when step > 0 && (hi - lo + step - 1) / step <= max_unroll ->
          incr unrolled;
          changed := true;
          let iv = Op.for_iv op in
          let body = op.Op.regions.(0).body in
          let out = ref [] in
          let i = ref lo in
          while !i < hi do
            let c = Builder.const_int !i in
            let subst = Clone.create_subst () in
            Clone.add_subst subst ~from:iv ~to_:(Op.result c);
            out := !out @ (c :: Clone.clone_ops subst body);
            i := !i + step
          done;
          !out
        | _ -> [ op ]
      end
      | _ -> [ op ]
    in
    match visit m with [ _ ] -> () | _ -> ()
  done;
  if !unrolled > 0 then Canonicalize.run m;
  !unrolled
