(* rodinia-compile: one op compiles one program from source to engine
   code.  All the time is in the compiler layers and none in execution.

   Every op's IR must print to the same text as set-up's compile of
   that program, and after the loop each program's last artifact must
   compute the reference checksum on the engine. *)

module B = Rodinia.Bench_def

let programs = Suite.compile_programs
let layers = [ "cudafe"; "passmgr"; "omp_lower"; "exec.compile" ]

(* Digest of the printed IR with SSA names renumbered in order of first
   appearance: value ids come from a process-wide counter, so the same
   program compiled twice prints different names for the same IR. *)
let ssa_name = Str.regexp "%[A-Za-z0-9_]+"

let ir_digest (m : Ir.Op.op) : string =
  let text = Ir.Printer.op_to_string m in
  let names = Hashtbl.create 256 in
  let renumber s =
    let name = Str.matched_string s in
    match Hashtbl.find_opt names name with
    | Some k -> k
    | None ->
      let k = "%" ^ string_of_int (Hashtbl.length names) in
      Hashtbl.add names name k;
      k
  in
  Digest.string (Str.global_substitute ssa_name renumber text)

let count_ops (m : Ir.Op.op) : int =
  let n = ref 0 in
  Ir.Op.iter (fun _ -> incr n) m;
  !n

let set_up () : string array =
  Array.map (fun b -> ir_digest (fst (Suite.compile ~op:Trace.untraced b))) programs

let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* Traced runs only: re-run each stage of Cpuify.pipeline_stages bare on
   a fresh parse, to split Passmgr's time into its stages and its own
   overhead (snapshots, verification, fuel), and count what each layer
   leaves behind.  Returns per-op stage ms and per-op counts. *)
let stage_replay () : (string * float) list * (string * float) list =
  let stage_ms = Hashtbl.create 8 and counts = Hashtbl.create 8 in
  for round = 1 to Params.stage_replay_rounds do
    Array.iter
      (fun (b : B.t) ->
        let count k v = if round = 1 then add counts k (float_of_int v) in
        let m = Cudafe.Codegen.compile b.B.cuda_src in
        count "ir.ops_after.cudafe" (count_ops m);
        List.iter
          (fun (name, f) ->
            let t0 = Trace.now_ns () in
            f m;
            add stage_ms name (Trace.ms_of_ns (Int64.sub (Trace.now_ns ()) t0)))
          (Core.Cpuify.pipeline_stages ());
        count "ir.ops_after.passmgr" (count_ops m);
        let r = Core.Omp_lower.run m in
        Core.Canonicalize.run m;
        count "ir.ops_after.omp_lower" (count_ops m);
        count "omp_lower.fused" r.Core.Omp_lower.fused;
        count "omp_lower.hoisted" r.Core.Omp_lower.hoisted;
        count "omp_lower.collapsed" r.Core.Omp_lower.collapsed;
        count "omp_lower.serialized" r.Core.Omp_lower.serialized)
      programs
  done;
  let n = float_of_int (Array.length programs) in
  let per_op scale tbl = Hashtbl.fold (fun k v acc -> (k, v /. scale) :: acc) tbl [] in
  (per_op (n *. float_of_int Params.stage_replay_rounds) stage_ms, per_op n counts)

let layer_values (s : Report.sampler) ~degraded ~program_ms =
  let total = Report.traced_total_ms s in
  let per_op_ms = total /. float_of_int (List.length s.Report.traced) in
  let share name = Trace.total_ms name /. total in
  let stage_ms, counts = stage_replay () in
  let stages =
    List.map (fun (k, ms) -> ("passmgr.stage." ^ k ^ ".share", ms /. per_op_ms)) stage_ms
  in
  Report.sampler_summary s
    ~attributed_ms:(List.fold_left (fun a n -> a +. Trace.total_ms n) 0.0 layers)
  @ List.map (fun n -> (n ^ ".share", share n)) layers
  @ stages
  @ [ ( "passmgr.overhead.share",
        share "passmgr" -. List.fold_left (fun a (_, v) -> a +. v) 0.0 stages )
    ; ("passmgr.degraded", float_of_int degraded /. float_of_int s.Report.attempted)
    ]
  @ counts
  @ Array.to_list
      (Array.mapi
         (fun i b -> ("program." ^ Suite.row b ^ ".share", program_ms.(i) /. total))
         programs)

let run ~seed ~seconds ~traced : Report.t =
  let setup_s, digests =
    Report.setups ~n:Params.setup_reps ~setup:set_up ~teardown:ignore
  in
  let references =
    Array.map (fun (b : B.t) -> Suite.reference_checksum b b.B.test_size) programs
  in
  let rng = Random.State.make [| seed |] in
  let s = Report.sampler ~traced_run:traced in
  let last = Array.make (Array.length programs) None in
  let program_ms = Array.make (Array.length programs) 0.0 in
  let degraded = ref 0 in
  Report.passes s ~seconds (fun () ->
      Array.iter
        (fun i ->
          let out, ms, was_traced =
            Report.op s (fun op ->
                try Ok (Suite.compile ~op programs.(i)) with Suite.Degraded why -> Error why)
          in
          (match out with
           | Some (Ok (m, c)) ->
             last.(i) <- Some c;
             Report.check s (ir_digest m = digests.(i))
           | Some (Error why) ->
             prerr_endline ("rodinia-compile: pipeline degraded: " ^ why);
             incr degraded;
             Report.check s false
           | None -> ());
          if was_traced then program_ms.(i) <- program_ms.(i) +. ms)
        (Report.shuffle rng (Array.init (Array.length programs) Fun.id)));
  let outputs_ok =
    Array.for_all Fun.id
      (Array.mapi
         (fun i (b : B.t) ->
           match last.(i) with
           | Some c ->
             Suite.same_bits (Suite.engine_checksum c b b.B.test_size) references.(i)
           | None -> false)
         programs)
  in
  let layers =
    if traced then layer_values s ~degraded:!degraded ~program_ms else []
  in
  Report.finish s ~checks_ok:outputs_ok ~setup_s ~layers
