(* rodinia-run: one op runs one compiled Rodinia program, warm, on the
   multicore engine.  All the time is in Exec's launch, worksharing and
   barrier paths, and none in the compiler.

   Inputs are restored from a pristine copy outside the timed call, and
   each op's output checksum must equal the reference. *)

module B = Rodinia.Bench_def

type program =
  { bench : B.t
  ; compiled : Runtime.Exec.compiled
  ; pristine : Interp.Mem.buffer array
  ; work : B.workload
  ; args : Interp.Mem.rv list
  }

let programs : (B.t * int) array =
  Array.of_list
    (List.map
       (fun (name, n) ->
         match Rodinia.Registry.find name with
         | Some b -> (b, n)
         | None -> failwith ("unknown Rodinia program " ^ name))
       Params.run_sizes)

let restore (p : program) : unit =
  Array.iter2 (fun src dst -> Interp.Mem.copy ~src ~dst) p.pristine p.work.B.buffers

let run_once (p : program) : Runtime.Exec.stats =
  snd (Runtime.Exec.run ~domains:Params.domains p.compiled p.args)

(* Compile every program, build its inputs, and launch it once so the
   engine's team state and domain pool exist before the first op. *)
let set_up () : program array =
  Array.map
    (fun ((b : B.t), n) ->
      let _, compiled = Suite.compile ~op:Trace.untraced b in
      let work = b.B.mk_workload n in
      let p =
        { bench = b
        ; compiled
        ; pristine = (b.B.mk_workload n).B.buffers
        ; work
        ; args = B.args_of_workload work
        }
      in
      ignore (run_once p);
      p)
    programs

let count_names =
  [ "exec.launches"; "exec.barrier_phases"; "exec.chunks_grabbed"
  ; "exec.frames_allocated"; "pool.spawns" ]

let run ~seed ~seconds ~traced : Report.t =
  let setup_s, progs =
    Report.setups ~n:Params.setup_reps ~setup:set_up ~teardown:ignore
  in
  let references = Array.map (fun (b, n) -> Suite.reference_checksum b n) programs in
  let rng = Random.State.make [| seed |] in
  let s = Report.sampler ~traced_run:traced in
  let program_ms = Array.make (Array.length progs) 0.0 in
  (* per-op sums of the engine's own counters, in [count_names] order *)
  let counts = Array.make 5 0 in
  Report.passes s ~seconds (fun () ->
      Array.iter
        (fun i ->
          let p = progs.(i) in
          restore p;
          let spawns0 = Runtime.Pool.total_spawns () in
          let out, ms, was_traced =
            Report.op s (fun op -> Trace.span ~op "exec.run" (fun () -> run_once p))
          in
          (match out with
           | Some st ->
             List.iteri
               (fun k v -> counts.(k) <- counts.(k) + v)
               [ st.Runtime.Exec.launches; st.Runtime.Exec.barrier_phases
               ; st.Runtime.Exec.chunks_grabbed; st.Runtime.Exec.frames_allocated
               ; Runtime.Pool.total_spawns () - spawns0 ];
             Report.check s
               (Suite.same_bits (Interp.Mem.checksum p.work.B.buffers) references.(i))
           | None -> ());
          if was_traced then program_ms.(i) <- program_ms.(i) +. ms)
        (Report.shuffle rng (Array.init (Array.length progs) Fun.id)));
  (* a warm launch builds no frames and spawns no domains *)
  let invariants_ok = counts.(3) = 0 && counts.(4) = 0 in
  let layers =
    if not traced then []
    else begin
      let total = Report.traced_total_ms s in
      let ops = float_of_int s.Report.attempted in
      Report.sampler_summary s ~attributed_ms:(Trace.total_ms "exec.run")
      @ [ ("exec.run.share", Trace.total_ms "exec.run" /. total) ]
      @ List.mapi (fun k name -> (name, float_of_int counts.(k) /. ops)) count_names
      @ Array.to_list
          (Array.mapi
             (fun i p -> ("program." ^ Suite.row p.bench ^ ".share", program_ms.(i) /. total))
             progs)
    end
  in
  Report.finish s ~checks_ok:invariants_ok ~setup_s ~layers
