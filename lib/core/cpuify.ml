(* The barrier-lowering driver (-cpuify): repeatedly applies parallel loop
   splitting and interchange until no [polygeist.barrier] remains, then
   the program consists only of barrier-free parallel loops that any CPU
   backend can execute with plain work sharing.

   One step, for each block-parallel loop that still contains a barrier:
   - a barrier at the top level of the loop body: split there (Sec. III-B1);
   - otherwise, if exactly one top-level op contains barriers and the rest
     of the body is movable prefix/suffix: interchange (Sec. III-B2);
   - otherwise: isolation — insert fictitious barriers around the first
     barrier-containing op (always legal: extra barriers only reduce
     parallelism), which the next iteration splits.

   [use_mincut] is the paper's min-cut ablation: min-cut cache
   minimization vs. caching every live value.

   Failures are reified: [run_result] returns a structured [error]
   (non-convergence, an unliftable barrier with its source location and
   the count of barriers still standing, ...) so the fault-tolerant pass
   manager can roll back and degrade instead of dying; [run] keeps the
   historical [Stuck]-raising interface on top of it. *)

open Ir

exception Stuck of string

type error =
  | Did_not_converge of { budget : int }
  | Cannot_lower of
      { op_text : string
      ; loc : Srcloc.t option
      ; remaining_barriers : int
      }
  | Unsupported of
      { what : string
      ; loc : Srcloc.t option
      ; remaining_barriers : int
      }
  | Barriers_remain of { remaining_barriers : int }

let count_barriers (op : Op.op) : int =
  let n = ref 0 in
  Op.iter (fun o -> if o.Op.kind = Op.Barrier then incr n) op;
  !n

(* Source location of the first remaining barrier that carries one — the
   anchor for `file:line:col` in Stuck/degradation diagnostics. *)
let first_barrier_loc (op : Op.op) : Srcloc.t option =
  let found = ref None in
  Op.iter (fun o ->
      if o.Op.kind = Op.Barrier && !found = None then begin
        match o.Op.loc with
        | Some l when Srcloc.is_known l -> found := Some l
        | _ -> ()
      end)
    op;
  !found

let loc_str = function
  | Some l -> Srcloc.to_string l
  | None -> "?:?"

let error_to_string = function
  | Did_not_converge { budget } ->
    Printf.sprintf "cpuify did not converge within %d fixpoint iterations"
      budget
  | Cannot_lower { op_text; loc; remaining_barriers } ->
    Printf.sprintf
      "cannot lower barrier at %s (%d barrier(s) remain):\n%s"
      (loc_str loc) remaining_barriers op_text
  | Unsupported { what; loc; remaining_barriers } ->
    Printf.sprintf
      "barrier split unsupported at %s (%d barrier(s) remain): %s"
      (loc_str loc) remaining_barriers what
  | Barriers_remain { remaining_barriers } ->
    Printf.sprintf "%d barrier(s) remain after cpuify" remaining_barriers

let default_budget = 10_000

exception Fail of error

let insert_isolation_barriers (par : Op.op) : bool =
  let body = par.Op.regions.(0).body in
  let rec go pre = function
    | [] -> None
    | (c : Op.op) :: rest when Op.contains_barrier c ->
      let mid = if pre = [] then [] else [ Builder.barrier () ] in
      let post = if rest = [] then [] else [ Builder.barrier () ] in
      if mid = [] && post = [] then None
      else Some (List.rev pre @ mid @ (c :: post) @ rest)
    | op :: rest -> go (op :: pre) rest
  in
  match go [] body with
  | Some body' ->
    par.Op.regions.(0).body <- body';
    true
  | None -> false

let run_result ?(use_mincut = true) ?(budget = default_budget) (m : Op.op) :
  (unit, error) result =
  Split.reset_stats ();
  let fuel = ref budget in
  try
    let changed = ref true in
    while !changed do
      changed := false;
      decr fuel;
      Fuel.tick "cpuify";
      if !fuel <= 0 then raise (Fail (Did_not_converge { budget }));
      let rec visit (op : Op.op) : Op.op list =
        Array.iter
          (fun (r : Op.region) -> r.body <- List.concat_map visit r.body)
          op.Op.regions;
        match op.Op.kind with
        | Op.Parallel Op.Block when Op.contains_barrier op -> begin
          match Split.top_barrier_index op.Op.regions.(0).body with
          | Some _ -> begin
            match Split.split_result ~use_mincut op with
            | Ok (Some ops) ->
              changed := true;
              ops
            | Ok None -> [ op ]
            | Error what ->
              raise
                (Fail
                   (Unsupported
                      { what
                      ; loc = first_barrier_loc op
                      ; remaining_barriers = count_barriers m
                      }))
          end
          | None -> begin
            (* interchange when the body shape allows it; otherwise isolate
               the offending construct with fictitious barriers so the next
               round splits around it *)
            match Interchange.interchange_result m op with
            | Ok (Some ops) ->
              changed := true;
              ops
            | Ok None | Error _ ->
              if insert_isolation_barriers op then begin
                changed := true;
                [ op ]
              end
              else
                raise
                  (Fail
                     (Cannot_lower
                        { op_text = Printer.op_to_string op
                        ; loc = first_barrier_loc op
                        ; remaining_barriers = count_barriers m
                        }))
          end
        end
        | _ -> [ op ]
      in
      match visit m with [ _ ] -> () | _ -> ()
    done;
    (* Nothing may be left synchronizing. *)
    if Op.contains_barrier m then
      Error (Barriers_remain { remaining_barriers = count_barriers m })
    else Ok ()
  with Fail e -> Error e

let run ?use_mincut (m : Op.op) : unit =
  match run_result ?use_mincut m with
  | Ok () -> ()
  | Error e -> raise (Stuck (error_to_string e))

(* The standard pipeline used before lowering to OpenMP: generic cleanups,
   barrier-specific optimizations, then barrier lowering. *)
let pipeline_stages () : (string * (Op.op -> unit)) list =
  [ ("canonicalize", Canonicalize.run)
  ; ("cse", Cse.run)
  ; ("mem2reg", fun m -> ignore (Mem2reg.run m))
  ; ("canonicalize", Canonicalize.run)
  ; ("cse", Cse.run)
  ; ("licm", fun m -> ignore (Licm.run m))
  ; ( "barrier-elim"
    , fun m ->
        ignore (Barrier_elim.run m);
        ignore (Barrier_elim.hoist_edge_barriers m);
        ignore (Barrier_elim.run m) )
  ; ("cpuify", fun m -> run m)
  ; ("canonicalize", Canonicalize.run)
  ; ("cse", Cse.run)
  ; ("mem2reg", fun m -> ignore (Mem2reg.run m))
  ; ("licm", fun m -> ignore (Licm.run m))
  ; ("canonicalize", Canonicalize.run)
  ]

(* The normalized IR the barrier optimizations see, which the sanitizer
   needs because it compares index expressions syntactically. *)
let cleanup (m : Op.op) : unit =
  Canonicalize.run m;
  Cse.run m;
  ignore (Mem2reg.run m);
  Canonicalize.run m

(* Unique stage names, in pipeline order — the vocabulary --inject-fault
   and random fault plans draw from. *)
let stage_names () : string list =
  List.fold_left
    (fun acc (name, _) -> if List.mem name acc then acc else name :: acc)
    [] (pipeline_stages ())
  |> List.rev

let pipeline (m : Op.op) : unit =
  List.iter (fun (_, f) -> f m) (pipeline_stages ())
