(* The set of values used by [ops] (including in nested regions) that
   are not defined inside them — their free values. *)
let free_values (ops : Op.op list) : Value.Set.t =
  let defined = ref Value.Set.empty in
  let used = ref Value.Set.empty in
  let rec go (o : Op.op) =
    Array.iter (fun v -> used := Value.Set.add v !used) o.operands;
    Array.iter (fun v -> defined := Value.Set.add v !defined) o.results;
    Array.iter
      (fun (r : Op.region) ->
        Array.iter (fun v -> defined := Value.Set.add v !defined) r.rargs;
        List.iter go r.body)
      o.regions
  in
  List.iter go ops;
  Value.Set.diff !used !defined
