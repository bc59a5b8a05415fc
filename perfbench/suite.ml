(* The Rodinia suite as both Rodinia workloads use it: the programs, the
   compile path under test, and the independent reference. *)

module B = Rodinia.Bench_def

(* The 14 Rodinia programs plus matmul, the paper's MCUDA comparison. *)
let compile_programs : B.t array =
  Array.of_list (Rodinia.Registry.all @ [ Rodinia.Registry.matmul ])

let row (b : B.t) : string = Report.metric_name b.B.name

let same_bits (a : float) (b : float) : bool =
  Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

exception Degraded of string

(* The compile path one op of rodinia-compile takes, with a span around
   each layer: source -> Cudafe -> Passmgr -> OpenMP lowering ->
   Exec.compile.  A degraded pipeline is a failed op: it still produces
   runnable code, but not the code the benchmark claims to measure. *)
let compile ~op (b : B.t) : Ir.Op.op * Runtime.Exec.compiled =
  let m = Trace.span ~op "cudafe" (fun () -> Cudafe.Codegen.compile b.B.cuda_src) in
  (match Trace.span ~op "passmgr" (fun () -> Core.Passmgr.run_pipeline m) with
   | Ok r when not (Core.Passmgr.degraded r) -> ()
   | Ok r -> raise (Degraded (b.B.name ^ ": " ^ Core.Passmgr.report_to_string r))
   | Error (_, f) -> raise (Degraded (b.B.name ^ ": " ^ Core.Passmgr.failure_to_string f)));
  Trace.span ~op "omp_lower" (fun () ->
      ignore (Core.Omp_lower.run m);
      Core.Canonicalize.run m);
  let c = Trace.span ~op "exec.compile" (fun () -> Runtime.Exec.compile m b.B.entry) in
  (m, c)

(* Output checksum of the GPU-semantics interpreter on the frontend's IR,
   at the engine's team size: no pass under test and not the engine
   under test, and bit-identical to the engine by the project's
   contract. *)
let reference_checksum (b : B.t) (n : int) : float =
  let w = b.B.mk_workload n in
  ignore
    (Interp.Eval.run ~team_size:Params.domains (Cudafe.Codegen.compile b.B.cuda_src) b.B.entry
       (B.args_of_workload w));
  Interp.Mem.checksum w.B.buffers

let engine_checksum (c : Runtime.Exec.compiled) (b : B.t) (n : int) : float =
  let w = b.B.mk_workload n in
  ignore (Runtime.Exec.run ~domains:Params.domains c (B.args_of_workload w));
  Interp.Mem.checksum w.B.buffers
