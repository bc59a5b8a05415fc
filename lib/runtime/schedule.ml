type policy =
  | Static
  | Dynamic
  | Guided

let policies = [ ("static", Static); ("dynamic", Dynamic); ("guided", Guided) ]
let to_string p = fst (List.find (fun (_, q) -> q = p) policies)

(* Must match the serial interpreter's partition exactly: the
   differential tests compare bitwise checksums, and for the (racy but
   tolerated) benchmarks whose result depends on the partition, static
   at [size] must reproduce interp at [team_size = size].  The balanced
   partition itself lives in [Interp.Eval] for that reason. *)
let static_chunk ~rank ~size ~n = Interp.Eval.static_chunk ~rank ~size ~n

type shared = int Atomic.t

let make_shared () = Atomic.make 0

let next ?chunk (s : shared) (p : policy) ~size ~n : (int * int) option =
  let grab chunk =
    let lo = Atomic.fetch_and_add s chunk in
    if lo >= n then None else Some (lo, min n (lo + chunk))
  in
  match p with
  | Static -> invalid_arg "Schedule.next: static is not a grabbing policy"
  | Dynamic ->
    (* fixed chunks; default batches at least 8 iterations per grab so
       fine-grained spaces don't pay one fetch_and_add per iteration *)
    let c =
      match chunk with
      | Some c when c > 0 -> c
      | _ -> max 8 (n / (16 * size))
    in
    grab c
  | Guided ->
    let remaining = max 0 (n - Atomic.get s) in
    let floor_ =
      match chunk with
      | Some c when c > 0 -> c
      | _ -> 1
    in
    grab (max floor_ (remaining / (2 * size)))
